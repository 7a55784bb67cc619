(** The single property-parsing entry point.

    SCTC accepts properties in FLTL or the PSL foundation-language
    subset, each with its own grammar ({!Fltl_parser.parse},
    {!Psl.parse}) raising its own exceptions. This module puts both
    behind one entry with a structured error, and is what
    {!Checker.add_property_text}, [Verif.Session], the [tcheck] CLI and
    the examples parse through. The two grammars carry a deprecation
    alert that only this module silences, so the [dep-strict] build
    profile rejects any other caller.

    Syntax selection:
    - [`Fltl] / [`Psl]: exactly {!Fltl_parser.parse} / {!Psl.parse}.
    - [`Auto] (the default): PSL when a PSL-only keyword ([always],
      [never], [eventually], [next]) appears in the token stream,
      FLTL otherwise. [until]/[release] appear in both grammars (FLTL
      reads them as the strong [U]/[R], PSL's bare [until] is weak), so
      they deliberately do {e not} flip detection — bare-word texts
      keep their historical FLTL meaning. *)

type syntax = [ `Fltl | `Psl | `Auto ]

type error = {
  line : int;
  col : int;  (** 1-based position of the offending token *)
  message : string;
  input : string;  (** the property text as given *)
}

exception Parse_error of error

val parse : ?syntax:syntax -> string -> (Formula.t, error) result
(** Parse a property ([syntax] defaults to [`Auto]). Never raises. *)

val parse_exn : ?syntax:syntax -> string -> Formula.t
(** @raise Parse_error on malformed input. *)

val detect_syntax : string -> [ `Fltl | `Psl ]
(** The syntax [`Auto] would pick. Texts that do not tokenize are
    reported as [`Fltl] (the error surfaces at parse time). *)

val error_to_string : error -> string
(** ["LINE:COL: MESSAGE in \"INPUT\""]. *)

val pp_error : Format.formatter -> error -> unit
