(** Lexer for MiniC source text. Supports decimal and [0x...] hexadecimal
    literals, C comments, and the operator/punctuation set of the subset. *)

type token =
  | IDENT of string
  | INT_LIT of int
  | KW_INT
  | KW_BOOL
  | KW_VOID
  | KW_CONST
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_BREAK
  | KW_CONTINUE
  | KW_RETURN
  | KW_TRUE
  | KW_FALSE
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | COLON
  | ASSIGN  (** [=] *)
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR  (** [*]: multiplication or dereference *)
  | SLASH
  | PERCENT
  | PLUS
  | MINUS
  | PLUSPLUS
  | MINUSMINUS
  | AMP
  | AMPAMP
  | BAR
  | BARBAR
  | CARET
  | TILDE
  | BANG
  | SHL
  | SHR
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | EOF

type position = Ast.position

val token_to_string : token -> string

val tokenize : string -> (token * position) list
(** @raise Loc.Error on an illegal character, an unterminated comment,
    an empty hex literal or an integer literal that does not fit an
    OCaml [int]. A literal that fits wraps to 32 bits. *)
