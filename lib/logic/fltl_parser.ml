exception Parse_error of string * Fltl_lexer.position

type stream = { mutable tokens : (Fltl_lexer.token * Fltl_lexer.position) list }

let peek stream =
  match stream.tokens with
  | [] -> (Fltl_lexer.EOF, { Fltl_lexer.line = 0; column = 0 })
  | tok :: _ -> tok

let advance stream =
  match stream.tokens with [] -> () | _ :: rest -> stream.tokens <- rest

let expect stream token =
  let got, pos = peek stream in
  if got = token then advance stream
  else
    raise
      (Parse_error
         ( Printf.sprintf "expected %s but found %s"
             (Fltl_lexer.token_to_string token)
             (Fltl_lexer.token_to_string got),
           pos ))

let parse_bound stream =
  match peek stream with
  | Fltl_lexer.LBRACKET, _ ->
    advance stream;
    let value =
      match peek stream with
      | Fltl_lexer.INT n, _ ->
        advance stream;
        n
      | got, pos ->
        raise
          (Parse_error
             ( "expected integer bound, found " ^ Fltl_lexer.token_to_string got,
               pos ))
    in
    expect stream Fltl_lexer.RBRACKET;
    Some value
  | _ -> None

let rec parse_formula stream =
  let left = parse_implied stream in
  let rec loop acc =
    match peek stream with
    | Fltl_lexer.IFF_OP, _ | Fltl_lexer.KW_IFF, _ ->
      advance stream;
      loop (Formula.iff acc (parse_implied stream))
    | _ -> acc
  in
  loop left

and parse_implied stream =
  let left = parse_ored stream in
  match peek stream with
  | Fltl_lexer.ARROW, _ | Fltl_lexer.KW_IMPLIES, _ ->
    advance stream;
    Formula.implies left (parse_implied stream)
  | _ -> left

and parse_ored stream =
  let rec loop acc =
    match peek stream with
    | Fltl_lexer.BAR, _ | Fltl_lexer.KW_OR, _ ->
      advance stream;
      loop (Formula.or_ acc (parse_anded stream))
    | _ -> acc
  in
  loop (parse_anded stream)

and parse_anded stream =
  let rec loop acc =
    match peek stream with
    | Fltl_lexer.AMP, _ | Fltl_lexer.KW_AND, _ ->
      advance stream;
      loop (Formula.and_ acc (parse_untiled stream))
    | _ -> acc
  in
  loop (parse_untiled stream)

and parse_untiled stream =
  let left = parse_unary stream in
  match peek stream with
  | Fltl_lexer.KW_U, _ | Fltl_lexer.KW_UNTIL, _ ->
    advance stream;
    let bound = parse_bound stream in
    Formula.until bound left (parse_untiled stream)
  | Fltl_lexer.KW_R, _ | Fltl_lexer.KW_RELEASE, _ ->
    advance stream;
    let bound = parse_bound stream in
    Formula.release bound left (parse_untiled stream)
  | _ -> left

and parse_unary stream =
  match peek stream with
  | Fltl_lexer.BANG, _ | Fltl_lexer.KW_NOT, _ ->
    advance stream;
    Formula.not_ (parse_unary stream)
  | Fltl_lexer.KW_X, _ ->
    advance stream;
    Formula.next (parse_unary stream)
  | Fltl_lexer.KW_F, _ ->
    advance stream;
    let bound = parse_bound stream in
    Formula.finally bound (parse_unary stream)
  | Fltl_lexer.KW_G, _ ->
    advance stream;
    let bound = parse_bound stream in
    Formula.globally bound (parse_unary stream)
  | _ -> parse_atom stream

and parse_atom stream =
  match peek stream with
  | Fltl_lexer.KW_TRUE, _ ->
    advance stream;
    Formula.tru
  | Fltl_lexer.KW_FALSE, _ ->
    advance stream;
    Formula.fls
  | Fltl_lexer.IDENT name, _ ->
    advance stream;
    Formula.prop name
  | Fltl_lexer.LPAREN, _ ->
    advance stream;
    let inner = parse_formula stream in
    expect stream Fltl_lexer.RPAREN;
    inner
  | got, pos ->
    raise
      (Parse_error
         ("unexpected " ^ Fltl_lexer.token_to_string got ^ " in formula", pos))

let parse text =
  let stream = { tokens = Fltl_lexer.tokenize text } in
  let formula = parse_formula stream in
  (match peek stream with
  | Fltl_lexer.EOF, _ -> ()
  | got, pos ->
    raise
      (Parse_error ("trailing input: " ^ Fltl_lexer.token_to_string got, pos)));
  formula
