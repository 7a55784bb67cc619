(** Source positions and the one error every text front end raises.

    The C lexer, parser and typechecker, the property grammar
    ([Sctc.Prop]), [Il.parse], the assembler, [--fault] knobs and
    [--prop] expressions all report malformed input as {!Error}, at the
    line and column where reading stopped. {!catch} is the one bridge to
    a [result]. *)

type pos = { line : int; column : int }
(** 1-based line and column. *)

type error = { pos : pos; message : string }

exception Error of error

val fail : pos -> ('a, unit, string, 'b) format4 -> 'a
(** [fail pos fmt ...] raises {!Error} with the formatted message. *)

val to_string : error -> string
(** ["LINE:COL: MESSAGE"]. [Printexc.to_string] renders {!Error} the
    same way. *)

val catch : (unit -> 'a) -> ('a, error) result
(** Run a front end, turning {!Error} into [Error]; any other exception
    passes through. *)

val int_literal : pos -> string -> int
(** The value of an integer literal whose digits a lexer has read
    ([0x] prefix allowed), as [int_of_string] reads it.
    @raise Error at [pos] when it does not fit an OCaml [int]. *)

val line_start : line:int -> string -> pos
(** The position of the first non-blank character of [line], whose text
    is given: where the line-oriented front ends (IL, assembler) point. *)

val at_offset : string -> int -> pos
(** The position of a byte offset into a text; the text's length gives
    the position just past its end. *)
