(** The lexer of the property grammar ([Sctc.Prop]), shared by its FLTL
    and PSL syntaxes.

    Reserved words (case-sensitive): [X F G U R true false] and the PSL
    keywords [always never eventually next until release abort and or not
    implies iff]. Everything else matching [[A-Za-z_][A-Za-z0-9_]*] is a
    proposition name. Comments: [/* ... */] and [// ...]. *)

type token =
  | IDENT of string
  | INT of int
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | BANG
  | AMP
  | BAR
  | ARROW  (** [->] *)
  | IFF_OP  (** [<->] *)
  | KW_TRUE
  | KW_FALSE
  | KW_X
  | KW_F
  | KW_G
  | KW_U
  | KW_R
  | KW_ALWAYS
  | KW_NEVER
  | KW_EVENTUALLY
  | KW_NEXT
  | KW_UNTIL
  | KW_RELEASE
  | KW_AND
  | KW_OR
  | KW_NOT
  | KW_IMPLIES
  | KW_IFF
  | EOF

val token_to_string : token -> string

(** [tokenize text] is the token stream with source positions, ending in
    [EOF].
    @raise Loc.Error on illegal characters, unterminated comments and
    integers that do not fit an OCaml [int]. *)
val tokenize : string -> (token * Loc.pos) list
