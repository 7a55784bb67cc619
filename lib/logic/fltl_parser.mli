(** Recursive-descent parser for the FLTL property syntax.

    Grammar (lowest to highest precedence):
    {v
      formula  := implied ( '<->' implied )*
      implied  := ored ( '->' implied )?            (right associative)
      ored     := anded ( ('|' | 'or') anded )*
      anded    := untiled ( ('&' | 'and') untiled )*
      untiled  := unary ( ('U' | 'R') bound? untiled )?
      unary    := ('!' | 'not') unary
                | 'X' unary
                | ('F' | 'G') bound? unary
                | atom
      atom     := 'true' | 'false' | IDENT | '(' formula ')'
      bound    := '[' INT ']'
    v}

    The paper's sample property "F (Read -> F[b] (EEE_OK | ...))" parses with
    this grammar. *)

exception Parse_error of string * Fltl_lexer.position

val parse : string -> Formula.t
[@@alert
  deprecated
    "Parse through Sctc.Prop.parse / parse_exn (~syntax:`Fltl) instead; \
     this grammar entry is reserved for Sctc.Prop."]
(** @raise Parse_error and {!Fltl_lexer.Lex_error} on malformed input.
    @deprecated Parse through [Sctc.Prop.parse] (or [parse_exn] /
    [~syntax:`Fltl]), which puts both syntaxes behind one structured
    error. This is the FLTL grammar [Sctc.Prop] dispatches to, its only
    in-tree caller; the alert stays so that the [dep-strict] build
    profile turns any other use into a compile error. *)
