open Format
module Ast = Minic.Ast

(* C precedence levels, higher binds tighter *)
let binop_level = function
  | Ast.Lor -> 1
  | Ast.Land -> 2
  | Ast.Bor -> 3
  | Ast.Bxor -> 4
  | Ast.Band -> 5
  | Ast.Eq | Ast.Ne -> 6
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 7
  | Ast.Shl | Ast.Shr -> 8
  | Ast.Add | Ast.Sub -> 9
  | Ast.Mul | Ast.Div | Ast.Mod -> 10

let unary_level = 11

let binop_text = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Bxor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Land -> "&&"
  | Ast.Lor -> "||"

let rec pp_expr_prec level fmt (e : Ast.expr) =
  match e.edesc with
  | Ast.Int_lit n -> fprintf fmt "%d" n
  | Ast.Bool_lit b -> fprintf fmt "%b" b
  | Ast.Var name -> pp_print_string fmt name
  | Ast.Index (name, index) ->
    fprintf fmt "%s[%a]" name (pp_expr_prec 0) index
  | Ast.Unop (op, inner) ->
    let text =
      match op with Ast.Neg -> "-" | Ast.Lognot -> "!" | Ast.Bitnot -> "~"
    in
    let rendered = asprintf "%a" (pp_expr_prec unary_level) inner in
    (* avoid "--x" lexing as the decrement token *)
    if op = Ast.Neg && String.length rendered > 0 && rendered.[0] = '-' then
      fprintf fmt "%s(%s)" text rendered
    else fprintf fmt "%s%s" text rendered
  | Ast.Binop (op, a, b) ->
    let my_level = binop_level op in
    let body fmt =
      (* left associative: same level allowed on the left only *)
      fprintf fmt "%a %s %a" (pp_expr_prec my_level) a (binop_text op)
        (pp_expr_prec (my_level + 1)) b
    in
    if my_level < level then fprintf fmt "(%t)" body else body fmt
  | Ast.Call (name, args) ->
    fprintf fmt "%s(%a)" name
      (pp_print_list
         ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
         (pp_expr_prec 0))
      args
  | Ast.Nondet (lo, hi) ->
    fprintf fmt "nondet(%a, %a)" (pp_expr_prec 0) lo (pp_expr_prec 0) hi
  | Ast.Mem_read addr -> fprintf fmt "mem_read(%a)" (pp_expr_prec 0) addr

let pp_expr fmt e = pp_expr_prec 0 fmt e

let pp_lvalue fmt = function
  | Ast.Lvar name -> pp_print_string fmt name
  | Ast.Lindex (name, index) -> fprintf fmt "%s[%a]" name pp_expr index
  | Ast.Lmem addr -> fprintf fmt "mem_write_target(%a)" pp_expr addr

let typ_text = function
  | Ast.Tint -> "int"
  | Ast.Tbool -> "bool"
  | Ast.Tvoid -> "void"
  | Ast.Tarray _ -> "int"

let rec pp_stmt fmt (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Block body ->
    fprintf fmt "@[<v 2>{@,%a@]@,}" pp_stmts body
  | Ast.Decl (name, typ, init) -> (
    match init with
    | None -> fprintf fmt "%s %s;" (typ_text typ) name
    | Some e -> fprintf fmt "%s %s = %a;" (typ_text typ) name pp_expr e)
  | Ast.Expr e -> fprintf fmt "%a;" pp_expr e
  | Ast.Assign (Ast.Lmem addr, value) ->
    fprintf fmt "mem_write(%a, %a);" pp_expr addr pp_expr value
  | Ast.Assign (lhs, value) ->
    fprintf fmt "%a = %a;" pp_lvalue lhs pp_expr value
  | Ast.If (cond, then_s, else_s) -> (
    fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" pp_expr cond pp_boxed then_s;
    match else_s with
    | None -> ()
    | Some e -> fprintf fmt "@[<v 2> else {@,%a@]@,}" pp_boxed e)
  | Ast.While (cond, body) ->
    fprintf fmt "@[<v 2>while (%a) {@,%a@]@,}" pp_expr cond pp_boxed body
  | Ast.Do_while (body, cond) ->
    fprintf fmt "@[<v 2>do {@,%a@]@,} while (%a);" pp_boxed body pp_expr cond
  | Ast.For (init, cond, step, body) ->
    let pp_opt_stmt fmt = function
      | None -> ()
      | Some s -> pp_header_stmt fmt s
    in
    let pp_opt_expr fmt = function
      | None -> ()
      | Some e -> pp_expr fmt e
    in
    fprintf fmt "@[<v 2>for (%a; %a; %a) {@,%a@]@,}" pp_opt_stmt init
      pp_opt_expr cond pp_opt_stmt step pp_boxed body
  | Ast.Switch (scrutinee, cases) ->
    fprintf fmt "@[<v 2>switch (%a) {@,%a@]@,}" pp_expr scrutinee
      (pp_print_list ~pp_sep:pp_print_cut pp_case)
      cases
  | Ast.Break -> pp_print_string fmt "break;"
  | Ast.Continue -> pp_print_string fmt "continue;"
  | Ast.Return None -> pp_print_string fmt "return;"
  | Ast.Return (Some e) -> fprintf fmt "return %a;" pp_expr e
  | Ast.Assert e -> fprintf fmt "assert(%a);" pp_expr e
  | Ast.Assume e -> fprintf fmt "assume(%a);" pp_expr e
  | Ast.Halt -> pp_print_string fmt "halt();"

(* statement used in a for-header: print without trailing ';' *)
and pp_header_stmt fmt (s : Ast.stmt) =
  let text = asprintf "%a" pp_stmt s in
  let trimmed =
    if String.length text > 0 && text.[String.length text - 1] = ';' then
      String.sub text 0 (String.length text - 1)
    else text
  in
  pp_print_string fmt trimmed

and pp_boxed fmt (s : Ast.stmt) =
  (* bodies of control statements print their statements directly *)
  match s.sdesc with
  | Ast.Block body -> pp_stmts fmt body
  | _ -> pp_stmt fmt s

and pp_stmts fmt body = pp_print_list ~pp_sep:pp_print_cut pp_stmt fmt body

and pp_case fmt (case : Ast.switch_case) =
  List.iter
    (fun label ->
      match label with
      | Ast.Case value -> fprintf fmt "case %d:@," value
      | Ast.Default -> fprintf fmt "default:@,")
    case.labels;
  fprintf fmt "@[<v 2>  %a@]" pp_stmts case.body

let pp_global fmt (g : Ast.global) =
  match g.g_type, g.g_const, g.g_init with
  | Ast.Tarray size, _, _ -> fprintf fmt "int %s[%d];" g.g_name size
  | typ, true, Some init ->
    fprintf fmt "const %s %s = %a;" (typ_text typ) g.g_name pp_expr init
  | typ, false, Some init ->
    fprintf fmt "%s %s = %a;" (typ_text typ) g.g_name pp_expr init
  | typ, _, None -> fprintf fmt "%s %s;" (typ_text typ) g.g_name

let pp_func fmt (f : Ast.func) =
  let pp_params fmt = function
    | [] -> pp_print_string fmt "void"
    | params ->
      pp_print_list
        ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
        (fun fmt (name, typ) -> fprintf fmt "%s %s" (typ_text typ) name)
        fmt params
  in
  fprintf fmt "@[<v 2>%s %s(%a) {@,%a@]@,}" (typ_text f.f_ret) f.f_name
    pp_params f.f_params pp_stmts f.f_body

let pp_program fmt (prog : Ast.program) =
  fprintf fmt "@[<v>%a@,@,%a@]@."
    (pp_print_list ~pp_sep:pp_print_cut pp_global)
    prog.globals
    (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt "@,@,") pp_func)
    prog.funcs

let program_to_string prog = asprintf "%a" pp_program prog
