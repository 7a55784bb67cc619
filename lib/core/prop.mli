(** The property grammar: FLTL and the PSL foundation-language subset.

    Both syntaxes are one recursive-descent parser over one token stream
    ({!Fltl_lexer}). They share the precedence ladder, lowest first:
    {v
      formula  := implied ( ('<->' | 'iff') implied )*
      implied  := ored ( ('->' | 'implies') implied )?   (right associative)
      ored     := anded ( ('|' | 'or') anded )*
      anded    := untiled ( ('&' | 'and') untiled )*
      untiled  := unary ( UNTIL untiled )?
      unary    := ('!' | 'not') unary | UNARY | atom
      atom     := 'true' | 'false' | IDENT | '(' formula ')'
      bound    := '[' INT ']'
    v}
    and differ only in which operator keywords the two starred levels
    accept:
    - FLTL: UNTIL is [U]/[until] (strong) or [R]/[release], each with an
      optional bound; UNARY is [X], or [F]/[G] with an optional bound.
    - PSL: UNTIL is [until!] (strong), [until] (weak: [p until q] is
      [q R (p | q)]) or [release]; UNARY is [always p] ([G p]), [never p]
      ([G !p]), [eventually[!] p] ([F p]) or [next[!][n] p] ([X] applied
      [n] times, default 1, at most 10000: each is a formula node).

    This is what {!Checker.add_property_text}, [Verif.Session], the
    [tcheck] CLI and the examples parse through. *)

type syntax = [ `Fltl | `Psl | `Auto ]
(** [`Auto] picks PSL when a PSL-only keyword ([always], [never],
    [eventually], [next]) appears in the token stream, FLTL otherwise.
    [until]/[release] belong to both syntaxes (FLTL reads them as the
    strong [U]/[R], PSL's bare [until] is weak), so they do {e not} flip
    detection: bare-word texts keep their FLTL meaning. *)

val parse_exn : ?syntax:syntax -> string -> Formula.t
(** Parse a property ([syntax] defaults to [`Auto]). The text is
    tokenized once; [Loc.catch] turns the error into a [result].
    @raise Loc.Error at the first offending token, lexical errors
    included. *)
