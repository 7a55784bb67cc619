exception Parse_error of string * Ast.position

type stream = {
  mutable tokens : (C_lexer.token * Ast.position) list;
  consts : (string, int) Hashtbl.t;
}

let peek stream =
  match stream.tokens with
  | [] -> (C_lexer.EOF, Ast.dummy_pos)
  | tok :: _ -> tok

let peek2 stream =
  match stream.tokens with
  | _ :: tok :: _ -> tok
  | _ -> (C_lexer.EOF, Ast.dummy_pos)

let advance stream =
  match stream.tokens with [] -> () | _ :: rest -> stream.tokens <- rest

let fail pos msg = raise (Parse_error (msg, pos))

let expect stream token =
  let got, pos = peek stream in
  if got = token then advance stream
  else
    fail pos
      (Printf.sprintf "expected %s but found %s"
         (C_lexer.token_to_string token)
         (C_lexer.token_to_string got))

let expect_ident stream =
  match peek stream with
  | C_lexer.IDENT name, _ ->
    advance stream;
    name
  | got, pos ->
    fail pos ("expected identifier, found " ^ C_lexer.token_to_string got)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec parse_expr_prec stream = parse_lor stream

and parse_lor stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.BARBAR, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Lor, acc, parse_land stream)))
    | _ -> acc
  in
  loop (parse_land stream)

and parse_land stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.AMPAMP, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Land, acc, parse_bor stream)))
    | _ -> acc
  in
  loop (parse_bor stream)

and parse_bor stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.BAR, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Bor, acc, parse_bxor stream)))
    | _ -> acc
  in
  loop (parse_bxor stream)

and parse_bxor stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.CARET, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Bxor, acc, parse_band stream)))
    | _ -> acc
  in
  loop (parse_band stream)

and parse_band stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.AMP, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Band, acc, parse_equality stream)))
    | _ -> acc
  in
  loop (parse_equality stream)

and parse_equality stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.EQ, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Eq, acc, parse_rel stream)))
    | C_lexer.NE, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Ne, acc, parse_rel stream)))
    | _ -> acc
  in
  loop (parse_rel stream)

and parse_rel stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.LT, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Lt, acc, parse_shift stream)))
    | C_lexer.LE, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Le, acc, parse_shift stream)))
    | C_lexer.GT, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Gt, acc, parse_shift stream)))
    | C_lexer.GE, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Ge, acc, parse_shift stream)))
    | _ -> acc
  in
  loop (parse_shift stream)

and parse_shift stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.SHL, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Shl, acc, parse_additive stream)))
    | C_lexer.SHR, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Shr, acc, parse_additive stream)))
    | _ -> acc
  in
  loop (parse_additive stream)

and parse_additive stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.PLUS, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Add, acc, parse_mult stream)))
    | C_lexer.MINUS, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Sub, acc, parse_mult stream)))
    | _ -> acc
  in
  loop (parse_mult stream)

and parse_mult stream =
  let rec loop acc =
    match peek stream with
    | C_lexer.STAR, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Mul, acc, parse_unary stream)))
    | C_lexer.SLASH, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Div, acc, parse_unary stream)))
    | C_lexer.PERCENT, pos ->
      advance stream;
      loop (Ast.expr ~pos (Ast.Binop (Ast.Mod, acc, parse_unary stream)))
    | _ -> acc
  in
  loop (parse_unary stream)

and parse_unary stream =
  match peek stream with
  | C_lexer.MINUS, pos ->
    advance stream;
    Ast.expr ~pos (Ast.Unop (Ast.Neg, parse_unary stream))
  | C_lexer.BANG, pos ->
    advance stream;
    Ast.expr ~pos (Ast.Unop (Ast.Lognot, parse_unary stream))
  | C_lexer.TILDE, pos ->
    advance stream;
    Ast.expr ~pos (Ast.Unop (Ast.Bitnot, parse_unary stream))
  | C_lexer.STAR, pos ->
    (* direct memory access *)
    advance stream;
    Ast.expr ~pos (Ast.Mem_read (parse_unary stream))
  | _ -> parse_primary stream

and parse_primary stream =
  match peek stream with
  | C_lexer.INT_LIT n, pos ->
    advance stream;
    Ast.expr ~pos (Ast.Int_lit n)
  | C_lexer.KW_TRUE, pos ->
    advance stream;
    Ast.expr ~pos (Ast.Bool_lit true)
  | C_lexer.KW_FALSE, pos ->
    advance stream;
    Ast.expr ~pos (Ast.Bool_lit false)
  | C_lexer.LPAREN, _ ->
    advance stream;
    let inner = parse_expr_prec stream in
    expect stream C_lexer.RPAREN;
    inner
  | C_lexer.IDENT name, pos -> (
    advance stream;
    match peek stream with
    | C_lexer.LPAREN, _ ->
      advance stream;
      let args = parse_args stream in
      expect stream C_lexer.RPAREN;
      (match name, args with
      | "nondet", [ lo; hi ] -> Ast.expr ~pos (Ast.Nondet (lo, hi))
      | "nondet", _ -> fail pos "nondet expects two arguments"
      | "mem_read", [ addr ] -> Ast.expr ~pos (Ast.Mem_read addr)
      | "mem_read", _ -> fail pos "mem_read expects one argument"
      | _ -> Ast.expr ~pos (Ast.Call (name, args)))
    | C_lexer.LBRACKET, _ ->
      advance stream;
      let index = parse_expr_prec stream in
      expect stream C_lexer.RBRACKET;
      Ast.expr ~pos (Ast.Index (name, index))
    | _ -> Ast.expr ~pos (Ast.Var name))
  | got, pos ->
    fail pos ("unexpected " ^ C_lexer.token_to_string got ^ " in expression")

and parse_args stream =
  match peek stream with
  | C_lexer.RPAREN, _ -> []
  | _ ->
    let first = parse_expr_prec stream in
    let rec loop acc =
      match peek stream with
      | C_lexer.COMMA, _ ->
        advance stream;
        loop (parse_expr_prec stream :: acc)
      | _ -> List.rev acc
    in
    loop [ first ]

(* ------------------------------------------------------------------ *)
(* Constant expressions (array sizes, case labels, const initializers) *)

(* Operands that short-circuiting skips ([live = false]) are still
   checked to be constant, but their zero divisors are not errors. *)
let rec const_eval ?(live = true) stream e =
  let open Ast in
  match e.edesc with
  | Int_lit n -> n
  | Bool_lit b -> Value.of_bool b
  | Var name -> (
    match Hashtbl.find_opt stream.consts name with
    | Some value -> value
    | None -> fail e.epos (name ^ " is not a compile-time constant"))
  | Unop (op, inner) -> Value.unop op (const_eval ~live stream inner)
  | Binop (Land, a, b) ->
    let a = Value.to_bool (const_eval ~live stream a) in
    let b = Value.to_bool (const_eval ~live:(live && a) stream b) in
    Value.of_bool (a && b)
  | Binop (Lor, a, b) ->
    let a = Value.to_bool (const_eval ~live stream a) in
    let b = Value.to_bool (const_eval ~live:(live && not a) stream b) in
    Value.of_bool (a || b)
  | Binop (op, a, b) -> (
    let va = const_eval ~live stream a and vb = const_eval ~live stream b in
    try Value.binop op va vb
    with Value.Division_by_zero ->
      if live then fail e.epos "division by zero in constant expression"
      else 0)
  | Index _ | Call _ | Nondet _ | Mem_read _ ->
    fail e.epos "not a compile-time constant expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let lvalue_of_expr expr =
  match expr.Ast.edesc with
  | Ast.Var name -> Ast.Lvar name
  | Ast.Index (name, index) -> Ast.Lindex (name, index)
  | Ast.Mem_read addr -> Ast.Lmem addr
  | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Unop _ | Ast.Binop _ | Ast.Call _
  | Ast.Nondet _ ->
    fail expr.Ast.epos "not an assignable lvalue"

let expr_of_lvalue pos = function
  | Ast.Lvar name -> Ast.expr ~pos (Ast.Var name)
  | Ast.Lindex (name, index) -> Ast.expr ~pos (Ast.Index (name, index))
  | Ast.Lmem addr -> Ast.expr ~pos (Ast.Mem_read addr)

(* assignment / call without trailing ';' (also used in for-headers) *)
let parse_simple_stmt stream =
  let _, pos = peek stream in
  let expr = parse_expr_prec stream in
  match peek stream with
  | C_lexer.ASSIGN, _ ->
    advance stream;
    Ast.stmt ~pos (Ast.Assign (lvalue_of_expr expr, parse_expr_prec stream))
  | C_lexer.PLUS_ASSIGN, _ ->
    advance stream;
    let lhs = lvalue_of_expr expr in
    let rhs = parse_expr_prec stream in
    Ast.stmt ~pos
      (Ast.Assign
         (lhs, Ast.expr ~pos (Ast.Binop (Ast.Add, expr_of_lvalue pos lhs, rhs))))
  | C_lexer.MINUS_ASSIGN, _ ->
    advance stream;
    let lhs = lvalue_of_expr expr in
    let rhs = parse_expr_prec stream in
    Ast.stmt ~pos
      (Ast.Assign
         (lhs, Ast.expr ~pos (Ast.Binop (Ast.Sub, expr_of_lvalue pos lhs, rhs))))
  | C_lexer.PLUSPLUS, _ ->
    advance stream;
    let lhs = lvalue_of_expr expr in
    Ast.stmt ~pos
      (Ast.Assign
         ( lhs,
           Ast.expr ~pos
             (Ast.Binop (Ast.Add, expr_of_lvalue pos lhs, Ast.int_lit 1)) ))
  | C_lexer.MINUSMINUS, _ ->
    advance stream;
    let lhs = lvalue_of_expr expr in
    Ast.stmt ~pos
      (Ast.Assign
         ( lhs,
           Ast.expr ~pos
             (Ast.Binop (Ast.Sub, expr_of_lvalue pos lhs, Ast.int_lit 1)) ))
  | _ -> (
    (* plain expression statement: recognize statement intrinsics *)
    match expr.Ast.edesc with
    | Ast.Call ("assert", [ e ]) -> Ast.stmt ~pos (Ast.Assert e)
    | Ast.Call ("assume", [ e ]) -> Ast.stmt ~pos (Ast.Assume e)
    | Ast.Call ("halt", []) -> Ast.stmt ~pos Ast.Halt
    | Ast.Call ("mem_write", [ addr; value ]) ->
      Ast.stmt ~pos (Ast.Assign (Ast.Lmem addr, value))
    | Ast.Call ("mem_write", _) -> fail pos "mem_write expects two arguments"
    | Ast.Call _ -> Ast.stmt ~pos (Ast.Expr expr)
    | _ -> fail pos "expression statement must be a call")

let parse_base_type stream =
  match peek stream with
  | C_lexer.KW_INT, _ ->
    advance stream;
    Ast.Tint
  | C_lexer.KW_BOOL, _ ->
    advance stream;
    Ast.Tbool
  | got, pos -> fail pos ("expected type, found " ^ C_lexer.token_to_string got)

let rec parse_stmt stream =
  match peek stream with
  | C_lexer.LBRACE, pos ->
    advance stream;
    let body = parse_stmts stream in
    expect stream C_lexer.RBRACE;
    Ast.stmt ~pos (Ast.Block body)
  | C_lexer.KW_INT, pos | C_lexer.KW_BOOL, pos ->
    let typ = parse_base_type stream in
    let name = expect_ident stream in
    let init =
      match peek stream with
      | C_lexer.ASSIGN, _ ->
        advance stream;
        Some (parse_expr_prec stream)
      | _ -> None
    in
    expect stream C_lexer.SEMI;
    Ast.stmt ~pos (Ast.Decl (name, typ, init))
  | C_lexer.KW_IF, pos ->
    advance stream;
    expect stream C_lexer.LPAREN;
    let cond = parse_expr_prec stream in
    expect stream C_lexer.RPAREN;
    let then_s = parse_stmt stream in
    let else_s =
      match peek stream with
      | C_lexer.KW_ELSE, _ ->
        advance stream;
        Some (parse_stmt stream)
      | _ -> None
    in
    Ast.stmt ~pos (Ast.If (cond, then_s, else_s))
  | C_lexer.KW_WHILE, pos ->
    advance stream;
    expect stream C_lexer.LPAREN;
    let cond = parse_expr_prec stream in
    expect stream C_lexer.RPAREN;
    Ast.stmt ~pos (Ast.While (cond, parse_stmt stream))
  | C_lexer.KW_DO, pos ->
    advance stream;
    let body = parse_stmt stream in
    expect stream C_lexer.KW_WHILE;
    expect stream C_lexer.LPAREN;
    let cond = parse_expr_prec stream in
    expect stream C_lexer.RPAREN;
    expect stream C_lexer.SEMI;
    Ast.stmt ~pos (Ast.Do_while (body, cond))
  | C_lexer.KW_FOR, pos ->
    advance stream;
    expect stream C_lexer.LPAREN;
    let init =
      match peek stream with
      | C_lexer.SEMI, _ -> None
      | C_lexer.KW_INT, dpos | C_lexer.KW_BOOL, dpos ->
        (* C99-style declaration in the for header *)
        let typ = parse_base_type stream in
        let name = expect_ident stream in
        let value =
          match peek stream with
          | C_lexer.ASSIGN, _ ->
            advance stream;
            Some (parse_expr_prec stream)
          | _ -> None
        in
        Some (Ast.stmt ~pos:dpos (Ast.Decl (name, typ, value)))
      | _ -> Some (parse_simple_stmt stream)
    in
    expect stream C_lexer.SEMI;
    let cond =
      match peek stream with
      | C_lexer.SEMI, _ -> None
      | _ -> Some (parse_expr_prec stream)
    in
    expect stream C_lexer.SEMI;
    let step =
      match peek stream with
      | C_lexer.RPAREN, _ -> None
      | _ -> Some (parse_simple_stmt stream)
    in
    expect stream C_lexer.RPAREN;
    Ast.stmt ~pos (Ast.For (init, cond, step, parse_stmt stream))
  | C_lexer.KW_SWITCH, pos ->
    advance stream;
    expect stream C_lexer.LPAREN;
    let scrutinee = parse_expr_prec stream in
    expect stream C_lexer.RPAREN;
    expect stream C_lexer.LBRACE;
    let cases = parse_switch_cases stream in
    expect stream C_lexer.RBRACE;
    Ast.stmt ~pos (Ast.Switch (scrutinee, cases))
  | C_lexer.KW_BREAK, pos ->
    advance stream;
    expect stream C_lexer.SEMI;
    Ast.stmt ~pos Ast.Break
  | C_lexer.KW_CONTINUE, pos ->
    advance stream;
    expect stream C_lexer.SEMI;
    Ast.stmt ~pos Ast.Continue
  | C_lexer.KW_RETURN, pos ->
    advance stream;
    let value =
      match peek stream with
      | C_lexer.SEMI, _ -> None
      | _ -> Some (parse_expr_prec stream)
    in
    expect stream C_lexer.SEMI;
    Ast.stmt ~pos (Ast.Return value)
  | _ ->
    let s = parse_simple_stmt stream in
    expect stream C_lexer.SEMI;
    s

and parse_stmts stream =
  match peek stream with
  | C_lexer.RBRACE, _ | C_lexer.EOF, _ -> []
  | _ ->
    let s = parse_stmt stream in
    s :: parse_stmts stream

and parse_switch_cases stream =
  match peek stream with
  | C_lexer.RBRACE, _ -> []
  | C_lexer.KW_CASE, _ | C_lexer.KW_DEFAULT, _ ->
    let rec parse_labels acc =
      match peek stream with
      | C_lexer.KW_CASE, _ ->
        advance stream;
        let label_expr = parse_expr_prec stream in
        let value = const_eval stream label_expr in
        expect stream C_lexer.COLON;
        parse_labels (Ast.Case value :: acc)
      | C_lexer.KW_DEFAULT, _ ->
        advance stream;
        expect stream C_lexer.COLON;
        parse_labels (Ast.Default :: acc)
      | _ -> List.rev acc
    in
    let labels = parse_labels [] in
    let rec parse_body acc =
      match peek stream with
      | C_lexer.KW_CASE, _ | C_lexer.KW_DEFAULT, _ | C_lexer.RBRACE, _ ->
        List.rev acc
      | _ -> parse_body (parse_stmt stream :: acc)
    in
    let body = parse_body [] in
    { Ast.labels; body } :: parse_switch_cases stream
  | got, pos ->
    fail pos ("expected case/default, found " ^ C_lexer.token_to_string got)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let parse_params stream =
  match peek stream with
  | C_lexer.RPAREN, _ -> []
  | C_lexer.KW_VOID, _ when fst (peek2 stream) = C_lexer.RPAREN ->
    advance stream;
    []
  | _ ->
    let parse_param () =
      let typ = parse_base_type stream in
      let name = expect_ident stream in
      (name, typ)
    in
    let first = parse_param () in
    let rec loop acc =
      match peek stream with
      | C_lexer.COMMA, _ ->
        advance stream;
        loop (parse_param () :: acc)
      | _ -> List.rev acc
    in
    loop [ first ]

let rec parse_topdecls stream globals funcs =
  match peek stream with
  | C_lexer.EOF, _ -> (List.rev globals, List.rev funcs)
  | C_lexer.KW_CONST, pos ->
    advance stream;
    let typ = parse_base_type stream in
    let name = expect_ident stream in
    expect stream C_lexer.ASSIGN;
    let init_expr = parse_expr_prec stream in
    let value = const_eval stream init_expr in
    expect stream C_lexer.SEMI;
    Hashtbl.replace stream.consts name value;
    let global =
      {
        Ast.g_name = name;
        g_type = typ;
        g_const = true;
        g_init = Some (Ast.expr ~pos (Ast.Int_lit value));
        g_pos = pos;
      }
    in
    parse_topdecls stream (global :: globals) funcs
  | C_lexer.KW_INT, pos | C_lexer.KW_BOOL, pos | C_lexer.KW_VOID, pos -> (
    let ret =
      match peek stream with
      | C_lexer.KW_VOID, _ ->
        advance stream;
        Ast.Tvoid
      | _ -> parse_base_type stream
    in
    let name = expect_ident stream in
    match peek stream with
    | C_lexer.LPAREN, _ ->
      (* function definition *)
      advance stream;
      let params = parse_params stream in
      expect stream C_lexer.RPAREN;
      expect stream C_lexer.LBRACE;
      let body = parse_stmts stream in
      expect stream C_lexer.RBRACE;
      let func =
        { Ast.f_name = name; f_ret = ret; f_params = params; f_body = body;
          f_pos = pos }
      in
      parse_topdecls stream globals (func :: funcs)
    | C_lexer.LBRACKET, _ ->
      (* global array *)
      if ret = Ast.Tvoid then fail pos "void array is not a thing";
      advance stream;
      let size_expr = parse_expr_prec stream in
      let size = const_eval stream size_expr in
      if size <= 0 then fail pos "array size must be positive";
      expect stream C_lexer.RBRACKET;
      expect stream C_lexer.SEMI;
      let global =
        { Ast.g_name = name; g_type = Ast.Tarray size; g_const = false;
          g_init = None; g_pos = pos }
      in
      parse_topdecls stream (global :: globals) funcs
    | _ ->
      (* global scalar *)
      if ret = Ast.Tvoid then fail pos "void variable is not a thing";
      let init =
        match peek stream with
        | C_lexer.ASSIGN, _ ->
          advance stream;
          Some (parse_expr_prec stream)
        | _ -> None
      in
      expect stream C_lexer.SEMI;
      let global =
        { Ast.g_name = name; g_type = ret; g_const = false; g_init = init;
          g_pos = pos }
      in
      parse_topdecls stream (global :: globals) funcs)
  | got, pos ->
    fail pos ("expected declaration, found " ^ C_lexer.token_to_string got)

let parse text =
  let stream = { tokens = C_lexer.tokenize text; consts = Hashtbl.create 16 } in
  let globals, funcs = parse_topdecls stream [] [] in
  { Ast.globals; funcs }

let parse_result text =
  match parse text with
  | program -> Ok program
  | exception Parse_error (msg, pos) ->
    Error (Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.column msg)
  | exception C_lexer.Lex_error (msg, pos) ->
    Error (Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.column msg)

let parse_expr text =
  let stream = { tokens = C_lexer.tokenize text; consts = Hashtbl.create 4 } in
  let expr = parse_expr_prec stream in
  (match peek stream with
  | C_lexer.EOF, _ -> ()
  | got, pos -> fail pos ("trailing input: " ^ C_lexer.token_to_string got));
  expr
