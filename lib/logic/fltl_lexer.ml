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
  | ARROW
  | IFF_OP
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

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | BANG -> "'!'"
  | AMP -> "'&'"
  | BAR -> "'|'"
  | ARROW -> "'->'"
  | IFF_OP -> "'<->'"
  | KW_TRUE -> "'true'"
  | KW_FALSE -> "'false'"
  | KW_X -> "'X'"
  | KW_F -> "'F'"
  | KW_G -> "'G'"
  | KW_U -> "'U'"
  | KW_R -> "'R'"
  | KW_ALWAYS -> "'always'"
  | KW_NEVER -> "'never'"
  | KW_EVENTUALLY -> "'eventually'"
  | KW_NEXT -> "'next'"
  | KW_UNTIL -> "'until'"
  | KW_RELEASE -> "'release'"
  | KW_AND -> "'and'"
  | KW_OR -> "'or'"
  | KW_NOT -> "'not'"
  | KW_IMPLIES -> "'implies'"
  | KW_IFF -> "'iff'"
  | EOF -> "end of input"

let keyword_of_word = function
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | "X" -> Some KW_X
  | "F" -> Some KW_F
  | "G" -> Some KW_G
  | "U" -> Some KW_U
  | "R" -> Some KW_R
  | "always" -> Some KW_ALWAYS
  | "never" -> Some KW_NEVER
  | "eventually" -> Some KW_EVENTUALLY
  | "next" -> Some KW_NEXT
  | "until" -> Some KW_UNTIL
  | "release" -> Some KW_RELEASE
  | "and" -> Some KW_AND
  | "or" -> Some KW_OR
  | "not" -> Some KW_NOT
  | "implies" -> Some KW_IMPLIES
  | "iff" -> Some KW_IFF
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize text =
  let length = String.length text in
  let tokens = ref [] in
  let line = ref 1 and column = ref 1 in
  let index = ref 0 in
  let here () = { Loc.line = !line; column = !column } in
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
  let rec skip_block_comment start_pos =
    if !index + 1 >= length then
      Loc.fail start_pos "unterminated comment"
    else if text.[!index] = '*' && text.[!index + 1] = '/' then begin
      advance ();
      advance ()
    end
    else begin
      advance ();
      skip_block_comment start_pos
    end
  in
  while !index < length do
    let pos = here () in
    match text.[!index] with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '(' -> emit LPAREN pos; advance ()
    | ')' -> emit RPAREN pos; advance ()
    | '[' -> emit LBRACKET pos; advance ()
    | ']' -> emit RBRACKET pos; advance ()
    | '!' ->
      (* allow the PSL strong-operator suffix 'eventually!' by treating a
         '!' directly after a keyword identically; the parser decides. *)
      emit BANG pos;
      advance ()
    | '&' ->
      advance ();
      if peek 0 = Some '&' then advance ();
      emit AMP pos
    | '|' ->
      advance ();
      if peek 0 = Some '|' then advance ();
      emit BAR pos
    | '-' ->
      advance ();
      if peek 0 = Some '>' then begin
        advance ();
        emit ARROW pos
      end
      else Loc.fail pos "expected '->'"
    | '<' ->
      advance ();
      if peek 0 = Some '-' && peek 1 = Some '>' then begin
        advance ();
        advance ();
        emit IFF_OP pos
      end
      else Loc.fail pos "expected '<->'"
    | '/' ->
      advance ();
      (match peek 0 with
      | Some '/' ->
        while !index < length && text.[!index] <> '\n' do
          advance ()
        done
      | Some '*' ->
        advance ();
        skip_block_comment pos
      | Some _ | None -> Loc.fail pos "stray '/'")
    | c when is_digit c ->
      let start = !index in
      while !index < length && is_digit text.[!index] do
        advance ()
      done;
      let digits = String.sub text start (!index - start) in
      emit (INT (Loc.int_literal pos digits)) pos
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
