(** The JSON writer and the one JSON reader of the repository.

    Everything it writes and reads back is JSONL: the trace events of
    [Sctc.Trace] (and so of every campaign), the metrics snapshots of
    {!Export}, and the rows of the bench trajectory ([Verif.Bench_log]).
    The writer renders member values to strings, so callers assemble
    objects from pre-rendered parts; the reader parses one line into a
    {!t}, and each of those callers checks the shape it expects. *)

(** {2 Writing} *)

val escape : string -> string
(** Escape for inclusion inside a JSON string literal (no quotes): the
    double quote, backslash, newline, carriage return and tab get their
    two-byte escapes, other bytes below 0x20 become a six-byte
    [\u00xx] escape, and every other byte, including those from 0x80
    up, passes through unchanged. Returns [s] itself, uncopied, when no
    byte needs escaping. *)

val string : string -> string
(** Quoted JSON string. *)

val obj : (string * string) list -> string
(** Object from pre-rendered member values. *)

val int : int -> string
val bool : bool -> string

val float : float -> string
(** [%.6g]; [null] for NaN and the infinities, which JSON cannot carry. *)

val null : string
val option : ('a -> string) -> 'a option -> string

(** {2 Reading} *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** a numeral without fraction or exponent that fits an [int] *)
  | Float of float  (** any other numeral *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in input order, duplicates kept *)

val parse : string -> (t, string) result
(** Parse one JSON value, surrounded by optional whitespace, that spans
    the whole string; bytes after the value are an error. The grammar is
    JSON's (RFC 8259):

    - numbers are [-? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?],
      so [+1], [.5], [1.] and [01] are errors; integer numerals keep
      their exact value as [Int] (see {!t});
    - strings take JSON's eight one-letter escapes (quote, backslash,
      slash, [b], [f], [n], [r], [t]) and [\uXXXX], decoded to UTF-8;
      a surrogate [\uXXXX] (D800-DFFF) is an error, as is a raw byte
      below 0x20. Other bytes, those from 0x80 up included, are kept as
      they are, so whatever {!escape} wrote reads back byte for byte;
    - arrays and objects nest at most 512 levels.

    Never raises. Every [Error] message ends in [" at byte N"], the
    0-based offset where parsing stopped. *)

val number : t -> float option
(** The value of an [Int] or a [Float]; [None] for anything else. *)
