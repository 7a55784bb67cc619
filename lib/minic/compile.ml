(* AST -> bytecode lowering.

   The typechecked program is lowered to one flat instruction array:
   locals become frame slots allocated per lexical scope, scalar globals
   and arrays become store slots in declaration order, const globals and
   literals go through the constants pool, and control flow becomes
   jumps. Every statement site emits a [Tick] first — the fuel check,
   statement counter and [on_statement] boundary — so the VM's timing
   reference is the interpreter's, statement for statement.

   The typechecker makes every name resolve lexically (a declaration is
   always an element of a statement sequence, and no case names a local
   declared directly in a sibling case), so fixed slots are faithful to
   the interpreter on every checked program. It also evaluates the global
   initializers, which become the initial scalar-store image here. *)

(* growable instruction buffer *)
type buf = { mutable code : Bytecode.instr array; mutable len : int }

(* interning pools *)
type pools = {
  consts : (int, int) Hashtbl.t;
  mutable const_list : int list;  (* reversed *)
  mutable const_count : int;
  mutable positions : Ast.position list;  (* reversed *)
  mutable position_count : int;
  mutable stmts : Ast.stmt list;  (* reversed *)
  mutable stmt_count : int;
}

(* per-function compilation state *)
type fstate = {
  mutable scopes : (string, int) Hashtbl.t list;  (* name -> frame slot *)
  mutable next_slot : int;
  mutable max_frame : int;
  mutable depth : int;  (* tracked operand-stack depth (upper bound) *)
  mutable max_depth : int;
  mutable continue_sites : int list list;  (* per enclosing loop *)
  mutable break_sites : int list list;  (* per enclosing loop/switch *)
}

(* program-wide compilation state *)
type state = {
  buf : buf;
  pools : pools;
  func_of_name : (string, int) Hashtbl.t;
  func_nparams : int array;
  global_of_name : (string, int) Hashtbl.t;
  array_of_name : (string, int) Hashtbl.t;
  const_value : (string, int) Hashtbl.t;
}

let const_index state value =
  let pools = state.pools in
  match Hashtbl.find_opt pools.consts value with
  | Some index -> index
  | None ->
    let index = pools.const_count in
    Hashtbl.replace pools.consts value index;
    pools.const_list <- value :: pools.const_list;
    pools.const_count <- index + 1;
    index

let position_index state pos =
  let pools = state.pools in
  let index = pools.position_count in
  pools.positions <- pos :: pools.positions;
  pools.position_count <- index + 1;
  index

let stmt_index state stmt =
  let pools = state.pools in
  let index = pools.stmt_count in
  pools.stmts <- stmt :: pools.stmts;
  pools.stmt_count <- index + 1;
  index

(* net operand-stack effect of an instruction (calls always push one
   value back, so a call nets [1 - nparams]) *)
let depth_delta state = function
  | Bytecode.Push _ | Bytecode.Const _ | Bytecode.Load_local _
  | Bytecode.Load_global _ ->
    1
  | Bytecode.Store_local _ | Bytecode.Store_global _ | Bytecode.Pop
  | Bytecode.Jump_if_false _ | Bytecode.Jump_if_true _
  | Bytecode.Assert_op _ | Bytecode.Assume_op _ | Bytecode.Binop _
  | Bytecode.Div_chk _ | Bytecode.Mod_chk _ | Bytecode.Nondet_op _
  | Bytecode.Ret ->
    -1
  | Bytecode.Store_elem _ | Bytecode.Obs_mem_write -> -2
  | Bytecode.Load_elem _ | Bytecode.Unop _ | Bytecode.Bool_cast
  | Bytecode.Jump _ | Bytecode.Tick _ | Bytecode.Obs_entry _
  | Bytecode.Obs_mem_read | Bytecode.Halt_op ->
    0
  | Bytecode.Call f -> 1 - state.func_nparams.(f)

let emit state fstate instr =
  let buf = state.buf in
  if buf.len = Array.length buf.code then begin
    let grown = Array.make (2 * buf.len) Bytecode.Halt_op in
    Array.blit buf.code 0 grown 0 buf.len;
    buf.code <- grown
  end;
  buf.code.(buf.len) <- instr;
  buf.len <- buf.len + 1;
  fstate.depth <- fstate.depth + depth_delta state instr;
  if fstate.depth > fstate.max_depth then fstate.max_depth <- fstate.depth;
  buf.len - 1

let here state = state.buf.len

let patch state site target =
  state.buf.code.(site) <-
    (match state.buf.code.(site) with
    | Bytecode.Jump _ -> Bytecode.Jump target
    | Bytecode.Jump_if_false _ -> Bytecode.Jump_if_false target
    | Bytecode.Jump_if_true _ -> Bytecode.Jump_if_true target
    | _ -> invalid_arg "Compile.patch: not a jump site")

(* scope management *)
let push_scope fstate = fstate.scopes <- Hashtbl.create 8 :: fstate.scopes

let pop_scope fstate saved_slot =
  (match fstate.scopes with
  | _ :: rest -> fstate.scopes <- rest
  | [] -> assert false);
  fstate.next_slot <- saved_slot

let declare_local fstate name =
  let slot = fstate.next_slot in
  fstate.next_slot <- slot + 1;
  if fstate.next_slot > fstate.max_frame then
    fstate.max_frame <- fstate.next_slot;
  (match fstate.scopes with
  | scope :: _ -> Hashtbl.replace scope name slot
  | [] -> invalid_arg "Compile: declaration outside any scope");
  slot

let lookup_local fstate name =
  List.find_map (fun scope -> Hashtbl.find_opt scope name) fstate.scopes

let push_loop fstate =
  fstate.break_sites <- [] :: fstate.break_sites;
  fstate.continue_sites <- [] :: fstate.continue_sites

let pop_breaks fstate =
  match fstate.break_sites with
  | sites :: rest ->
    fstate.break_sites <- rest;
    sites
  | [] -> assert false

let pop_continues fstate =
  match fstate.continue_sites with
  | sites :: rest ->
    fstate.continue_sites <- rest;
    sites
  | [] -> assert false

(* expression compilation; leaves exactly one value on the stack *)
let rec compile_expr state fstate (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Int_lit 0 -> ignore (emit state fstate (Bytecode.Push 0))
  | Ast.Int_lit 1 -> ignore (emit state fstate (Bytecode.Push 1))
  | Ast.Int_lit v ->
    ignore (emit state fstate (Bytecode.Const (const_index state v)))
  | Ast.Bool_lit b ->
    ignore (emit state fstate (Bytecode.Push (Value.of_bool b)))
  | Ast.Var name -> (
    match lookup_local fstate name with
    | Some slot -> ignore (emit state fstate (Bytecode.Load_local slot))
    | None -> (
      match Hashtbl.find_opt state.const_value name with
      | Some 0 -> ignore (emit state fstate (Bytecode.Push 0))
      | Some 1 -> ignore (emit state fstate (Bytecode.Push 1))
      | Some v ->
        ignore (emit state fstate (Bytecode.Const (const_index state v)))
      | None -> (
        match Hashtbl.find_opt state.global_of_name name with
        | Some slot -> ignore (emit state fstate (Bytecode.Load_global slot))
        | None -> invalid_arg ("Compile: not a scalar: " ^ name))))
  | Ast.Index (name, index_expr) -> (
    compile_expr state fstate index_expr;
    match Hashtbl.find_opt state.array_of_name name with
    | Some slot ->
      ignore
        (emit state fstate
           (Bytecode.Load_elem (slot, position_index state e.Ast.epos)))
    | None -> invalid_arg ("Compile: not an array: " ^ name))
  | Ast.Unop (op, inner) ->
    compile_expr state fstate inner;
    ignore (emit state fstate (Bytecode.Unop op))
  | Ast.Binop (Ast.Land, a, b) ->
    compile_expr state fstate a;
    let to_false = emit state fstate (Bytecode.Jump_if_false (-1)) in
    compile_expr state fstate b;
    ignore (emit state fstate Bytecode.Bool_cast);
    let to_end = emit state fstate (Bytecode.Jump (-1)) in
    patch state to_false (here state);
    ignore (emit state fstate (Bytecode.Push 0));
    patch state to_end (here state);
    (* the two arms merge at depth +1; the linear tracker counted both *)
    fstate.depth <- fstate.depth - 1
  | Ast.Binop (Ast.Lor, a, b) ->
    compile_expr state fstate a;
    let to_true = emit state fstate (Bytecode.Jump_if_true (-1)) in
    compile_expr state fstate b;
    ignore (emit state fstate Bytecode.Bool_cast);
    let to_end = emit state fstate (Bytecode.Jump (-1)) in
    patch state to_true (here state);
    ignore (emit state fstate (Bytecode.Push 1));
    patch state to_end (here state);
    fstate.depth <- fstate.depth - 1
  | Ast.Binop (op, a, b) -> (
    compile_expr state fstate a;
    compile_expr state fstate b;
    match op with
    | Ast.Div ->
      ignore
        (emit state fstate (Bytecode.Div_chk (position_index state e.Ast.epos)))
    | Ast.Mod ->
      ignore
        (emit state fstate (Bytecode.Mod_chk (position_index state e.Ast.epos)))
    | op -> ignore (emit state fstate (Bytecode.Binop op)))
  | Ast.Call (name, args) -> (
    List.iter (compile_expr state fstate) args;
    match Hashtbl.find_opt state.func_of_name name with
    | Some index -> ignore (emit state fstate (Bytecode.Call index))
    | None -> invalid_arg ("Compile: unknown function " ^ name))
  | Ast.Nondet (lo, hi) ->
    compile_expr state fstate lo;
    compile_expr state fstate hi;
    ignore
      (emit state fstate (Bytecode.Nondet_op (position_index state e.Ast.epos)))
  | Ast.Mem_read addr ->
    compile_expr state fstate addr;
    ignore (emit state fstate Bytecode.Obs_mem_read)

(* the value is on the stack; store it into the lvalue (index/address
   evaluated after the value, as the interpreter does) *)
let compile_store state fstate pos lhs =
  match lhs with
  | Ast.Lvar name -> (
    match lookup_local fstate name with
    | Some slot -> ignore (emit state fstate (Bytecode.Store_local slot))
    | None -> (
      match Hashtbl.find_opt state.global_of_name name with
      | Some slot -> ignore (emit state fstate (Bytecode.Store_global slot))
      | None -> invalid_arg ("Compile: cannot assign " ^ name)))
  | Ast.Lindex (name, index_expr) -> (
    compile_expr state fstate index_expr;
    match Hashtbl.find_opt state.array_of_name name with
    | Some slot ->
      ignore
        (emit state fstate (Bytecode.Store_elem (slot, position_index state pos)))
    | None -> invalid_arg ("Compile: not an array: " ^ name))
  | Ast.Lmem addr ->
    compile_expr state fstate addr;
    ignore (emit state fstate Bytecode.Obs_mem_write)

let rec compile_stmt state fstate (s : Ast.stmt) =
  ignore (emit state fstate (Bytecode.Tick (stmt_index state s)));
  match s.Ast.sdesc with
  | Ast.Block body ->
    let saved = fstate.next_slot in
    push_scope fstate;
    List.iter (compile_stmt state fstate) body;
    pop_scope fstate saved
  | Ast.Decl (name, _typ, init) ->
    (match init with
    | Some e -> compile_expr state fstate e
    | None -> ignore (emit state fstate (Bytecode.Push 0)));
    (* the initializer is evaluated before the name is (re)bound *)
    let slot = declare_local fstate name in
    ignore (emit state fstate (Bytecode.Store_local slot))
  | Ast.Expr e ->
    compile_expr state fstate e;
    ignore (emit state fstate Bytecode.Pop)
  | Ast.Assign (lhs, value_expr) ->
    compile_expr state fstate value_expr;
    compile_store state fstate s.Ast.spos lhs
  | Ast.If (cond, then_s, else_s) -> (
    compile_expr state fstate cond;
    let to_else = emit state fstate (Bytecode.Jump_if_false (-1)) in
    compile_stmt state fstate then_s;
    match else_s with
    | None -> patch state to_else (here state)
    | Some else_s ->
      let to_end = emit state fstate (Bytecode.Jump (-1)) in
      patch state to_else (here state);
      compile_stmt state fstate else_s;
      patch state to_end (here state))
  | Ast.While (cond, body) ->
    let top = here state in
    compile_expr state fstate cond;
    let to_end = emit state fstate (Bytecode.Jump_if_false (-1)) in
    push_loop fstate;
    compile_stmt state fstate body;
    List.iter (fun site -> patch state site top) (pop_continues fstate);
    ignore (emit state fstate (Bytecode.Jump top));
    patch state to_end (here state);
    List.iter (fun site -> patch state site (here state)) (pop_breaks fstate)
  | Ast.Do_while (body, cond) ->
    let top = here state in
    push_loop fstate;
    compile_stmt state fstate body;
    let cond_at = here state in
    List.iter (fun site -> patch state site cond_at) (pop_continues fstate);
    compile_expr state fstate cond;
    ignore (emit state fstate (Bytecode.Jump_if_true top));
    List.iter (fun site -> patch state site (here state)) (pop_breaks fstate)
  | Ast.For (init, cond, step, body) ->
    let saved = fstate.next_slot in
    push_scope fstate;
    Option.iter (compile_stmt state fstate) init;
    let top = here state in
    let to_end =
      match cond with
      | None -> None
      | Some cond ->
        compile_expr state fstate cond;
        Some (emit state fstate (Bytecode.Jump_if_false (-1)))
    in
    push_loop fstate;
    compile_stmt state fstate body;
    let step_at = here state in
    List.iter (fun site -> patch state site step_at) (pop_continues fstate);
    Option.iter (compile_stmt state fstate) step;
    ignore (emit state fstate (Bytecode.Jump top));
    Option.iter (fun site -> patch state site (here state)) to_end;
    List.iter (fun site -> patch state site (here state)) (pop_breaks fstate);
    pop_scope fstate saved
  | Ast.Switch (scrutinee, cases) ->
    compile_expr state fstate scrutinee;
    let saved = fstate.next_slot in
    push_scope fstate;
    (* the scrutinee parks in an unnameable slot ('#' cannot lex) *)
    let scrutinee_slot = declare_local fstate "#switch" in
    ignore (emit state fstate (Bytecode.Store_local scrutinee_slot));
    (* dispatch: first case with a matching label, else the first
       default — the interpreter's search order, compiled to tests *)
    let case_sites =
      List.map
        (fun case ->
          List.filter_map
            (function
              | Ast.Case v ->
                ignore (emit state fstate (Bytecode.Load_local scrutinee_slot));
                compile_expr state fstate
                  { Ast.edesc = Ast.Int_lit v; epos = s.Ast.spos };
                ignore (emit state fstate (Bytecode.Binop Ast.Eq));
                Some (emit state fstate (Bytecode.Jump_if_true (-1)))
              | Ast.Default -> None)
            case.Ast.labels)
        cases
    in
    let default_site = emit state fstate (Bytecode.Jump (-1)) in
    fstate.break_sites <- [] :: fstate.break_sites;
    let default_target = ref None in
    List.iteri
      (fun index case ->
        let entry = here state in
        List.iter
          (fun site -> patch state site entry)
          (List.nth case_sites index);
        if !default_target = None && List.mem Ast.Default case.Ast.labels then
          default_target := Some entry;
        List.iter (compile_stmt state fstate) case.Ast.body)
      cases;
    let switch_end = here state in
    patch state default_site
      (match !default_target with Some t -> t | None -> switch_end);
    List.iter (fun site -> patch state site switch_end) (pop_breaks fstate);
    pop_scope fstate saved
  | Ast.Break -> (
    match fstate.break_sites with
    | sites :: rest ->
      let site = emit state fstate (Bytecode.Jump (-1)) in
      fstate.break_sites <- (site :: sites) :: rest
    | [] -> invalid_arg "Compile: break outside loop or switch")
  | Ast.Continue -> (
    match fstate.continue_sites with
    | sites :: rest ->
      let site = emit state fstate (Bytecode.Jump (-1)) in
      fstate.continue_sites <- (site :: sites) :: rest
    | [] -> invalid_arg "Compile: continue outside loop")
  | Ast.Return value_expr ->
    (match value_expr with
    | Some e -> compile_expr state fstate e
    | None -> ignore (emit state fstate (Bytecode.Push 0)));
    ignore (emit state fstate Bytecode.Ret)
  | Ast.Assert e ->
    compile_expr state fstate e;
    ignore
      (emit state fstate (Bytecode.Assert_op (position_index state s.Ast.spos)))
  | Ast.Assume e ->
    compile_expr state fstate e;
    ignore
      (emit state fstate (Bytecode.Assume_op (position_index state s.Ast.spos)))
  | Ast.Halt -> ignore (emit state fstate Bytecode.Halt_op)

let compile info =
  let prog = Typecheck.program info in
  let pools =
    {
      consts = Hashtbl.create 64;
      const_list = [];
      const_count = 0;
      positions = [];
      position_count = 0;
      stmts = [];
      stmt_count = 0;
    }
  in
  let func_of_name = Hashtbl.create 16 in
  List.iteri
    (fun index (f : Ast.func) -> Hashtbl.replace func_of_name f.Ast.f_name index)
    prog.Ast.funcs;
  let func_nparams =
    Array.of_list
      (List.map
         (fun (f : Ast.func) -> List.length f.Ast.f_params)
         prog.Ast.funcs)
  in
  let state =
    {
      buf = { code = Array.make 256 Bytecode.Halt_op; len = 0 };
      pools;
      func_of_name;
      func_nparams;
      global_of_name = Hashtbl.create 32;
      array_of_name = Hashtbl.create 8;
      const_value = Hashtbl.create 8;
    }
  in
  (* globals: slots in declaration order, initial values as the
     typechecker evaluated them *)
  let scalar_names = ref [] and scalar_inits = ref [] in
  let array_infos = ref [] in
  List.iter
    (fun (g : Ast.global) ->
      let name = g.Ast.g_name in
      if g.Ast.g_const then
        Hashtbl.replace state.const_value name (Typecheck.init_value info name)
      else
        match g.Ast.g_type with
        | Ast.Tarray size ->
          Hashtbl.replace state.array_of_name name (List.length !array_infos);
          array_infos :=
            { Bytecode.arr_name = name; arr_len = size } :: !array_infos
        | Ast.Tint | Ast.Tbool | Ast.Tvoid ->
          Hashtbl.replace state.global_of_name name
            (List.length !scalar_names);
          scalar_names := name :: !scalar_names;
          scalar_inits := Typecheck.init_value info name :: !scalar_inits)
    prog.Ast.globals;
  (* functions *)
  let funcs =
    Array.of_list
      (List.mapi
         (fun index (f : Ast.func) ->
           let fstate =
             {
               scopes = [];
               next_slot = 0;
               max_frame = 0;
               depth = 0;
               max_depth = 0;
               continue_sites = [];
               break_sites = [];
             }
           in
           let entry = here state in
           ignore (emit state fstate (Bytecode.Obs_entry index));
           (* parameters share the scope of the body's top-level
              declarations, as in the interpreter's call frame *)
           push_scope fstate;
           List.iter
             (fun (param, _typ) -> ignore (declare_local fstate param))
             f.Ast.f_params;
           List.iter (compile_stmt state fstate) f.Ast.f_body;
           (* fell off the end: return 0 (void callers ignore it) *)
           ignore (emit state fstate (Bytecode.Push 0));
           ignore (emit state fstate Bytecode.Ret);
           {
             Bytecode.fn_name = f.Ast.f_name;
             fn_entry = entry;
             fn_nparams = List.length f.Ast.f_params;
             fn_frame = max fstate.max_frame (List.length f.Ast.f_params);
             fn_stack = max 1 fstate.max_depth;
             fn_void = f.Ast.f_ret = Ast.Tvoid;
           })
         prog.Ast.funcs)
  in
  {
    Bytecode.code = Array.sub state.buf.code 0 state.buf.len;
    consts = Array.of_list (List.rev pools.const_list);
    funcs;
    func_of_name;
    globals = Array.of_list (List.rev !scalar_names);
    global_of_name = state.global_of_name;
    global_init = Array.of_list (List.rev !scalar_inits);
    arrays = Array.of_list (List.rev !array_infos);
    array_of_name = state.array_of_name;
    const_globals =
      List.filter_map
        (fun (g : Ast.global) ->
          if g.Ast.g_const then
            Some (g.Ast.g_name, Hashtbl.find state.const_value g.Ast.g_name)
          else None)
        prog.Ast.globals;
    positions = Array.of_list (List.rev pools.positions);
    stmts = Array.of_list (List.rev pools.stmts);
  }
