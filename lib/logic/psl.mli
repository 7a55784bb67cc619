(** PSL (Property Specification Language) foundation-language subset.

    SCTC accepts properties in PSL or FLTL; this module parses the PSL FL
    operators the paper's flow needs and maps them onto the FLTL core:

    {v
      always p          ==> G p
      never p           ==> G !p
      eventually! p     ==> F p
      next p            ==> X p
      next[n] p         ==> X^n p
      p until! q        ==> p U q        (strong)
      p until q         ==> q R (p | q)  (weak until)
      p release q       ==> p R q
      not/and/or/implies/iff and the symbol forms
    v}

    SEREs (sequence expressions) are out of scope — the paper's property set
    uses only the FL subset above. *)

exception Parse_error of string * Fltl_lexer.position

val parse : string -> Formula.t
[@@alert
  deprecated
    "Parse through Sctc.Prop.parse / parse_exn (~syntax:`Psl) instead; \
     this grammar entry is reserved for Sctc.Prop."]
(** @raise Parse_error and {!Fltl_lexer.Lex_error} on malformed input.
    @deprecated Parse through [Sctc.Prop.parse] (or [parse_exn] /
    [~syntax:`Psl]), which puts both syntaxes behind one structured
    error. This is the PSL grammar [Sctc.Prop] dispatches to, its only
    in-tree caller; the alert stays so that the [dep-strict] build
    profile turns any other use into a compile error. *)
