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
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR
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

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT_LIT n -> Printf.sprintf "integer %d" n
  | KW_INT -> "'int'"
  | KW_BOOL -> "'bool'"
  | KW_VOID -> "'void'"
  | KW_CONST -> "'const'"
  | KW_IF -> "'if'"
  | KW_ELSE -> "'else'"
  | KW_WHILE -> "'while'"
  | KW_DO -> "'do'"
  | KW_FOR -> "'for'"
  | KW_SWITCH -> "'switch'"
  | KW_CASE -> "'case'"
  | KW_DEFAULT -> "'default'"
  | KW_BREAK -> "'break'"
  | KW_CONTINUE -> "'continue'"
  | KW_RETURN -> "'return'"
  | KW_TRUE -> "'true'"
  | KW_FALSE -> "'false'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | COLON -> "':'"
  | ASSIGN -> "'='"
  | PLUS_ASSIGN -> "'+='"
  | MINUS_ASSIGN -> "'-='"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | PLUSPLUS -> "'++'"
  | MINUSMINUS -> "'--'"
  | AMP -> "'&'"
  | AMPAMP -> "'&&'"
  | BAR -> "'|'"
  | BARBAR -> "'||'"
  | CARET -> "'^'"
  | TILDE -> "'~'"
  | BANG -> "'!'"
  | SHL -> "'<<'"
  | SHR -> "'>>'"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | EQ -> "'=='"
  | NE -> "'!='"
  | EOF -> "end of input"

let keyword_of_word = function
  | "int" -> Some KW_INT
  | "bool" -> Some KW_BOOL
  | "void" -> Some KW_VOID
  | "const" -> Some KW_CONST
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "do" -> Some KW_DO
  | "for" -> Some KW_FOR
  | "switch" -> Some KW_SWITCH
  | "case" -> Some KW_CASE
  | "default" -> Some KW_DEFAULT
  | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | "return" -> Some KW_RETURN
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let tokenize text =
  let length = String.length text in
  let tokens = ref [] in
  let line = ref 1 and column = ref 1 in
  let index = ref 0 in
  let here () = { Ast.line = !line; column = !column } in
  let advance () =
    if !index < length then begin
      if text.[!index] = '\n' then begin
        incr line;
        column := 1
      end
      else incr column;
      incr index
    end
  in
  let peek offset =
    if !index + offset < length then Some text.[!index + offset] else None
  in
  let emit token pos = tokens := (token, pos) :: !tokens in
  (* two-character operator helper: if the next char matches, emit [two],
     otherwise [one] *)
  let pair next two one pos =
    advance ();
    if peek 0 = Some next then begin
      advance ();
      emit two pos
    end
    else emit one pos
  in
  while !index < length do
    let pos = here () in
    match text.[!index] with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '(' -> emit LPAREN pos; advance ()
    | ')' -> emit RPAREN pos; advance ()
    | '{' -> emit LBRACE pos; advance ()
    | '}' -> emit RBRACE pos; advance ()
    | '[' -> emit LBRACKET pos; advance ()
    | ']' -> emit RBRACKET pos; advance ()
    | ';' -> emit SEMI pos; advance ()
    | ',' -> emit COMMA pos; advance ()
    | ':' -> emit COLON pos; advance ()
    | '^' -> emit CARET pos; advance ()
    | '~' -> emit TILDE pos; advance ()
    | '%' -> emit PERCENT pos; advance ()
    | '*' -> emit STAR pos; advance ()
    | '+' ->
      advance ();
      (match peek 0 with
      | Some '+' -> advance (); emit PLUSPLUS pos
      | Some '=' -> advance (); emit PLUS_ASSIGN pos
      | Some _ | None -> emit PLUS pos)
    | '-' ->
      advance ();
      (match peek 0 with
      | Some '-' -> advance (); emit MINUSMINUS pos
      | Some '=' -> advance (); emit MINUS_ASSIGN pos
      | Some _ | None -> emit MINUS pos)
    | '&' -> pair '&' AMPAMP AMP pos
    | '|' -> pair '|' BARBAR BAR pos
    | '=' -> pair '=' EQ ASSIGN pos
    | '!' -> pair '=' NE BANG pos
    | '<' ->
      advance ();
      (match peek 0 with
      | Some '<' -> advance (); emit SHL pos
      | Some '=' -> advance (); emit LE pos
      | Some _ | None -> emit LT pos)
    | '>' ->
      advance ();
      (match peek 0 with
      | Some '>' -> advance (); emit SHR pos
      | Some '=' -> advance (); emit GE pos
      | Some _ | None -> emit GT pos)
    | '/' ->
      advance ();
      (match peek 0 with
      | Some '/' ->
        while !index < length && text.[!index] <> '\n' do
          advance ()
        done
      | Some '*' ->
        advance ();
        let rec skip () =
          if !index + 1 >= length then
            Loc.fail pos "unterminated comment"
          else if text.[!index] = '*' && text.[!index + 1] = '/' then begin
            advance ();
            advance ()
          end
          else begin
            advance ();
            skip ()
          end
        in
        skip ()
      | Some _ | None -> emit SLASH pos)
    | '0' when peek 1 = Some 'x' || peek 1 = Some 'X' ->
      advance ();
      advance ();
      let start = !index in
      while !index < length && is_hex_digit text.[!index] do
        advance ()
      done;
      if !index = start then Loc.fail pos "empty hex literal";
      let digits = "0x" ^ String.sub text start (!index - start) in
      emit (INT_LIT (Value.wrap (Loc.int_literal pos digits))) pos
    | c when is_digit c ->
      let start = !index in
      while !index < length && is_digit text.[!index] do
        advance ()
      done;
      let digits = String.sub text start (!index - start) in
      emit (INT_LIT (Value.wrap (Loc.int_literal pos digits))) pos
    | c when is_ident_start c ->
      let start = !index in
      while !index < length && is_ident_char text.[!index] do
        advance ()
      done;
      let word = String.sub text start (!index - start) in
      (match keyword_of_word word with
      | Some kw -> emit kw pos
      | None -> emit (IDENT word) pos)
    | c -> Loc.fail pos "illegal character %C" c
  done;
  emit EOF (here ());
  List.rev !tokens
