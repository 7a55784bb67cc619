(** Bytecode virtual machine — the fast MiniC execution backend.

    Runs programs compiled by {!Compile} with the same observable
    behavior as {!Interp}: identical hook call order (statement tick
    before each statement, function entry after parameter binding,
    memory and nondet at their evaluation points), identical statement
    counts and fuel accounting, identical error messages and positions,
    and {!Interp}'s exception constructors, so call sites written
    against the interpreter pattern-match unchanged. *)

type t

exception Halt
(** The program executed [halt()]. {!run} converts it to
    [Interp.Halted]; it escapes {!call} (as the interpreter's internal
    halt signal escapes [Interp.call]). *)

val create : Bytecode.t -> t
(** Globals take the initializer values {!Typecheck} evaluated, arrays
    are zeroed (equivalent to [Interp.create] running the
    initializers). *)

val reset : t -> unit
(** Back to the freshly created state (including the statement count). *)

val run : ?fuel:int -> t -> Interp.hooks -> entry:string -> Interp.outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes parameters. *)

val call : t -> Interp.hooks -> fuel:int ref -> string -> int list -> int option

val read_global : t -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val write_global : t -> string -> int -> unit

val read_element : t -> string -> int -> int
(** @raise Interp.Runtime_error on out-of-bounds. *)

val globals_snapshot : t -> (string * int) list
(** Scalar globals with current values, sorted by name. *)

val statements_executed : t -> int
