let fail = Loc.fail

type info = {
  tc_program : Ast.program;
  tc_func_ids : (string * int) list;
  tc_globals : (string * Ast.typ) list; (* non-const, declaration order *)
  tc_consts : (string * int) list;
  tc_inits : (string, int) Hashtbl.t; (* scalar and const globals *)
  tc_vm_program : Bytecode.t option Atomic.t; (* filled by Vm.create *)
}

let program info = info.tc_program
let func_id info name = List.assoc name info.tc_func_ids

let func_name_of_id info id =
  List.find_map
    (fun (name, fid) -> if fid = id then Some name else None)
    info.tc_func_ids

let func_ids info = info.tc_func_ids
let global_type info name = List.assoc_opt name info.tc_globals
let globals info = info.tc_globals
let const_value info name = List.assoc_opt name info.tc_consts
let init_value info name = Hashtbl.find info.tc_inits name
let vm_program info = info.tc_vm_program

(* ------------------------------------------------------------------ *)

type value_type = Vint | Vbool


(* int and bool coerce freely, per C practice *)
let scalar_of_typ pos = function
  | Ast.Tint -> Vint
  | Ast.Tbool -> Vbool
  | Ast.Tvoid -> fail pos "void is not a value type"
  | Ast.Tarray _ -> fail pos "array used as a scalar"

(* [case] is the id of the switch case whose body declares the local
   directly, -1 for every other local *)
type binding = { vtype : value_type; case : int }

(* a switch's scope is shared by its cases; [scope_case] is the case
   being checked while it is the innermost scope *)
type scope = { vars : (string, binding) Hashtbl.t; mutable scope_case : int }

type env = {
  info_globals : (string, Ast.global) Hashtbl.t;
  funcs : (string, Ast.func) Hashtbl.t;
  mutable scopes : scope list; (* innermost first *)
  current : Ast.func;
  mutable loop_depth : int;
  mutable switch_depth : int;
  mutable cases : int list; (* enclosing switch cases, innermost first *)
  mutable case_count : int;
}

let push_scope env =
  env.scopes <- { vars = Hashtbl.create 8; scope_case = -1 } :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> assert false

let declare_local env pos name vtype =
  match env.scopes with
  | scope :: _ ->
    if Hashtbl.mem scope.vars name then
      fail pos "redeclaration of %s in the same scope" name;
    Hashtbl.replace scope.vars name { vtype; case = scope.scope_case }
  | [] -> assert false

(* C scopes a local declared in one case over the rest of the switch, but
   entering at a later case skips its declaration: only code inside the
   declaring case (nested switches included) may name it *)
let lookup_local env pos name =
  match List.find_map (fun s -> Hashtbl.find_opt s.vars name) env.scopes with
  | Some { case; _ } when case >= 0 && not (List.mem case env.cases) ->
    fail pos "%s is declared in another case of this switch" name
  | found -> Option.map (fun b -> b.vtype) found

(* ------------------------------------------------------------------ *)

let rec check_expr env (e : Ast.expr) : value_type =
  let pos = e.epos in
  match e.edesc with
  | Ast.Int_lit _ -> Vint
  | Ast.Bool_lit _ -> Vbool
  | Ast.Var name -> (
    match lookup_local env pos name with
    | Some vtype -> vtype
    | None -> (
      match Hashtbl.find_opt env.info_globals name with
      | Some { g_type = Ast.Tarray _; _ } ->
        fail pos "array %s used without an index" name
      | Some g -> scalar_of_typ pos g.g_type
      | None -> fail pos "unknown variable %s" name))
  | Ast.Index (name, index) -> (
    ignore (expect_int env index);
    match lookup_local env pos name with
    | Some _ -> fail pos "%s is a scalar, not an array" name
    | None -> (
      match Hashtbl.find_opt env.info_globals name with
      | Some { g_type = Ast.Tarray _; _ } -> Vint
      | Some _ -> fail pos "%s is a scalar, not an array" name
      | None -> fail pos "unknown array %s" name))
  | Ast.Unop (Ast.Neg, inner) | Ast.Unop (Ast.Bitnot, inner) ->
    ignore (expect_int env inner);
    Vint
  | Ast.Unop (Ast.Lognot, inner) ->
    ignore (check_expr env inner);
    Vbool
  | Ast.Binop (op, a, b) -> (
    match op with
    | Ast.Land | Ast.Lor ->
      ignore (check_expr env a);
      ignore (check_expr env b);
      Vbool
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      ignore (check_expr env a);
      ignore (check_expr env b);
      Vbool
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
    | Ast.Bxor | Ast.Shl | Ast.Shr ->
      ignore (expect_int env a);
      ignore (expect_int env b);
      Vint)
  | Ast.Call (name, args) -> (
    match Hashtbl.find_opt env.funcs name with
    | None -> fail pos "call to unknown function %s" name
    | Some func ->
      if List.length args <> List.length func.f_params then
        fail pos "%s expects %d argument(s), got %d" name
          (List.length func.f_params) (List.length args);
      List.iter (fun arg -> ignore (check_expr env arg)) args;
      (match func.f_ret with
      | Ast.Tvoid -> fail pos "void function %s used as a value" name
      | other -> scalar_of_typ pos other))
  | Ast.Nondet (lo, hi) ->
    ignore (expect_int env lo);
    ignore (expect_int env hi);
    Vint
  | Ast.Mem_read addr ->
    ignore (expect_int env addr);
    Vint

and expect_int env (e : Ast.expr) =
  match check_expr env e with
  | Vint -> Vint
  | Vbool -> Vint (* bool coerces to int, C-style *)

let check_lvalue env pos = function
  | Ast.Lvar name -> (
    match lookup_local env pos name with
    | Some vtype -> vtype
    | None -> (
      match Hashtbl.find_opt env.info_globals name with
      | Some { g_const = true; _ } -> fail pos "assignment to constant %s" name
      | Some { g_type = Ast.Tarray _; _ } ->
        fail pos "cannot assign to whole array %s" name
      | Some g -> scalar_of_typ pos g.g_type
      | None -> fail pos "unknown variable %s" name))
  | Ast.Lindex (name, index) -> (
    ignore (expect_int env index);
    match Hashtbl.find_opt env.info_globals name with
    | Some { g_type = Ast.Tarray _; _ } -> Vint
    | Some _ | None -> fail pos "%s is not an array" name)
  | Ast.Lmem addr ->
    ignore (expect_int env addr);
    Vint

let rec check_stmt env (s : Ast.stmt) =
  let pos = s.spos in
  match s.sdesc with
  | Ast.Block body ->
    push_scope env;
    List.iter (check_stmt env) body;
    pop_scope env
  | Ast.Decl (name, typ, init) ->
    let vtype = scalar_of_typ pos typ in
    Option.iter (fun e -> ignore (check_expr env e)) init;
    declare_local env pos name vtype
  | Ast.Expr e -> (
    match e.edesc with
    | Ast.Call (name, _) ->
      (* void calls are fine in statement position *)
      (match Hashtbl.find_opt env.funcs name with
      | None -> fail e.epos "call to unknown function %s" name
      | Some func ->
        let args =
          match e.edesc with Ast.Call (_, args) -> args | _ -> []
        in
        if List.length args <> List.length func.f_params then
          fail e.epos "%s expects %d argument(s), got %d" name
            (List.length func.f_params) (List.length args);
        List.iter (fun arg -> ignore (check_expr env arg)) args)
    | _ -> ignore (check_expr env e))
  | Ast.Assign (lhs, e) ->
    ignore (check_lvalue env pos lhs);
    ignore (check_expr env e)
  | Ast.If (cond, then_s, else_s) ->
    ignore (check_expr env cond);
    check_body env "the body of an if" then_s;
    Option.iter (check_body env "the body of an else") else_s
  | Ast.While (cond, body) ->
    ignore (check_expr env cond);
    env.loop_depth <- env.loop_depth + 1;
    check_body env "the body of a while" body;
    env.loop_depth <- env.loop_depth - 1
  | Ast.Do_while (body, cond) ->
    env.loop_depth <- env.loop_depth + 1;
    check_body env "the body of a do" body;
    env.loop_depth <- env.loop_depth - 1;
    ignore (check_expr env cond)
  | Ast.For (init, cond, step, body) ->
    push_scope env;
    Option.iter (check_stmt env) init;
    Option.iter (fun e -> ignore (check_expr env e)) cond;
    Option.iter (check_body env "a for step") step;
    env.loop_depth <- env.loop_depth + 1;
    check_body env "the body of a for" body;
    env.loop_depth <- env.loop_depth - 1;
    pop_scope env
  | Ast.Switch (scrutinee, cases) ->
    ignore (expect_int env scrutinee);
    let seen = Hashtbl.create 8 in
    let defaults = ref 0 in
    List.iter
      (fun case ->
        List.iter
          (function
            | Ast.Case value ->
              if Hashtbl.mem seen value then
                fail pos "duplicate case label %d" value;
              Hashtbl.replace seen value ()
            | Ast.Default ->
              incr defaults;
              if !defaults > 1 then fail pos "duplicate default label")
          case.Ast.labels)
      cases;
    env.switch_depth <- env.switch_depth + 1;
    push_scope env;
    let scope = List.hd env.scopes in
    let enclosing = env.cases in
    List.iter
      (fun case ->
        env.case_count <- env.case_count + 1;
        scope.scope_case <- env.case_count;
        env.cases <- env.case_count :: enclosing;
        List.iter (check_stmt env) case.Ast.body)
      cases;
    env.cases <- enclosing;
    pop_scope env;
    env.switch_depth <- env.switch_depth - 1
  | Ast.Break ->
    if env.loop_depth = 0 && env.switch_depth = 0 then
      fail pos "break outside loop or switch"
  | Ast.Continue -> if env.loop_depth = 0 then fail pos "continue outside loop"
  | Ast.Return value -> (
    match env.current.f_ret, value with
    | Ast.Tvoid, Some _ -> fail pos "void function returns a value"
    | Ast.Tvoid, None -> ()
    | _, None -> fail pos "non-void function returns no value"
    | _, Some e -> ignore (check_expr env e))
  | Ast.Assert e | Ast.Assume e -> ignore (check_expr env e)
  | Ast.Halt -> ()

(* a declaration is only ever an element of a statement sequence, so its
   scope is a block (or function, case or for header) it always runs in *)
and check_body env what (s : Ast.stmt) =
  (match s.sdesc with
  | Ast.Decl (name, _, _) ->
    fail s.spos "declaration of %s cannot be %s" name what
  | _ -> ());
  check_stmt env s

(* A global initializer is a constant expression over earlier globals,
   evaluated once, here, in declaration order, with the interpreter's
   short-circuit and 32-bit arithmetic. [globals] holds the earlier
   globals and [inits] the values of the scalars among them. Operands
   that short-circuiting skips ([live = false]) are checked but their
   zero divisors are not errors. *)
let rec eval_init globals inits ~live (e : Ast.expr) =
  let pos = e.epos in
  match e.edesc with
  | Ast.Int_lit v -> v
  | Ast.Bool_lit b -> Value.of_bool b
  | Ast.Var name -> (
    match Hashtbl.find_opt inits name with
    | Some v -> v
    | None when Hashtbl.mem globals name ->
      fail pos "array %s used without an index" name
    | None -> fail pos "unknown variable %s in initializer" name)
  | Ast.Unop (op, inner) -> Value.unop op (eval_init globals inits ~live inner)
  | Ast.Binop (Ast.Land, a, b) ->
    let a = Value.to_bool (eval_init globals inits ~live a) in
    let b = Value.to_bool (eval_init globals inits ~live:(live && a) b) in
    Value.of_bool (a && b)
  | Ast.Binop (Ast.Lor, a, b) ->
    let a = Value.to_bool (eval_init globals inits ~live a) in
    let b = Value.to_bool (eval_init globals inits ~live:(live && not a) b) in
    Value.of_bool (a || b)
  | Ast.Binop (op, a, b) -> (
    let a = eval_init globals inits ~live a in
    let b = eval_init globals inits ~live b in
    try Value.binop op a b
    with Value.Division_by_zero ->
      if live then fail pos "division by zero in global initializer" else 0)
  | Ast.Call _ | Ast.Nondet _ | Ast.Mem_read _ | Ast.Index _ ->
    fail pos "global initializer must be a constant expression"

let check (prog : Ast.program) =
  let info_globals : (string, Ast.global) Hashtbl.t = Hashtbl.create 64 in
  let funcs : (string, Ast.func) Hashtbl.t = Hashtbl.create 64 in
  let tc_inits = Hashtbl.create 64 in
  List.iter
    (fun (g : Ast.global) ->
      if Hashtbl.mem info_globals g.g_name then
        fail g.g_pos "duplicate global %s" g.g_name;
      let value =
        match g.g_init with
        | Some e -> eval_init info_globals tc_inits ~live:true e
        | None -> 0
      in
      (match g.g_type with
      | Ast.Tarray _ -> ()
      | Ast.Tint | Ast.Tbool | Ast.Tvoid ->
        Hashtbl.replace tc_inits g.g_name value);
      Hashtbl.replace info_globals g.g_name g)
    prog.globals;
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem funcs f.f_name then
        fail f.f_pos "duplicate function %s" f.f_name;
      if Hashtbl.mem info_globals f.f_name then
        fail f.f_pos "%s is already a global variable" f.f_name;
      Hashtbl.replace funcs f.f_name f)
    prog.funcs;
  List.iter
    (fun (f : Ast.func) ->
      let env =
        {
          info_globals;
          funcs;
          scopes = [];
          current = f;
          loop_depth = 0;
          switch_depth = 0;
          cases = [];
          case_count = 0;
        }
      in
      push_scope env;
      let seen_params = Hashtbl.create 8 in
      List.iter
        (fun (name, typ) ->
          if Hashtbl.mem seen_params name then
            fail f.f_pos "duplicate parameter %s in %s" name f.f_name;
          Hashtbl.replace seen_params name ();
          declare_local env f.f_pos name (scalar_of_typ f.f_pos typ))
        f.f_params;
      List.iter (check_stmt env) f.f_body)
    prog.funcs;
  let tc_func_ids = List.mapi (fun i f -> (f.Ast.f_name, i + 1)) prog.funcs in
  let tc_globals =
    List.filter_map
      (fun (g : Ast.global) ->
        if g.g_const then None else Some (g.g_name, g.g_type))
      prog.globals
  in
  let tc_consts =
    List.filter_map
      (fun (g : Ast.global) ->
        match Hashtbl.find_opt tc_inits g.g_name with
        | Some v when g.g_const -> Some (g.g_name, v)
        | _ -> None)
      prog.globals
  in
  {
    tc_program = prog;
    tc_func_ids;
    tc_globals;
    tc_consts;
    tc_inits;
    tc_vm_program = Atomic.make None;
  }
