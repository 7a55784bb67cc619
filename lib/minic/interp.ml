(* The reference interpreter, the tests' oracle for {!Vm}: the outcome,
   hooks and crash exceptions are the VM's own. *)

type outcome = Vm.outcome = Finished of int option | Halted | Fuel_exhausted

exception Assertion_failed = Vm.Assertion_failed
exception Assumption_failed = Vm.Assumption_failed
exception Runtime_error = Vm.Runtime_error
exception Out_of_fuel

(* control-flow signals *)
exception Break_signal
exception Continue_signal
exception Return_signal of int option
exception Halt_signal

type hooks = Vm.hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;
  on_function_entry : string -> unit;
}

let default_hooks = Vm.default_hooks

type cell = Scalar of int ref | Array of int array

type env = {
  info : Typecheck.info;
  globals : (string, cell) Hashtbl.t;
  consts : (string, int) Hashtbl.t;
  funcs : (string, Ast.func) Hashtbl.t;
  mutable stmt_count : int;
  mutable current_fuel : int ref;
  mutable depth : int;  (* active calls *)
}

(* local frames: stack of scopes, each a name -> ref table *)
type frame = (string, int ref) Hashtbl.t list

let fail pos fmt = Printf.ksprintf (fun m -> raise (Runtime_error (m, pos))) fmt

let lookup_local (frame : frame) name =
  List.find_map (fun scope -> Hashtbl.find_opt scope name) frame

let rec eval env hooks frame (e : Ast.expr) : int =
  let pos = e.Ast.epos in
  match e.Ast.edesc with
  | Ast.Int_lit n -> n
  | Ast.Bool_lit b -> Value.of_bool b
  | Ast.Var name -> (
    match lookup_local frame name with
    | Some cell -> !cell
    | None -> (
      match Hashtbl.find_opt env.consts name with
      | Some v -> v
      | None -> (
        match Hashtbl.find_opt env.globals name with
        | Some (Scalar cell) -> !cell
        | Some (Array _) -> fail pos "array %s used as scalar" name
        | None -> fail pos "unknown variable %s" name)))
  | Ast.Index (name, index_expr) ->
    let index = eval env hooks frame index_expr in
    (match Hashtbl.find_opt env.globals name with
    | Some (Array data) ->
      if index < 0 || index >= Array.length data then
        fail pos "index %d out of bounds for %s[%d]" index name
          (Array.length data)
      else data.(index)
    | Some (Scalar _) | None -> fail pos "%s is not an array" name)
  | Ast.Unop (op, inner_expr) -> Value.unop op (eval env hooks frame inner_expr)
  | Ast.Binop (Ast.Land, a, b) ->
    (* short circuit *)
    if Value.to_bool (eval env hooks frame a) then
      Value.of_bool (Value.to_bool (eval env hooks frame b))
    else 0
  | Ast.Binop (Ast.Lor, a, b) ->
    if Value.to_bool (eval env hooks frame a) then 1
    else Value.of_bool (Value.to_bool (eval env hooks frame b))
  | Ast.Binop (op, a_expr, b_expr) -> (
    let a = eval env hooks frame a_expr in
    let b = eval env hooks frame b_expr in
    try Value.binop op a b
    with Value.Division_by_zero -> fail pos "division by zero")
  | Ast.Call (name, arg_exprs) -> (
    let args = List.map (eval env hooks frame) arg_exprs in
    match call_function env hooks pos name args with
    | Some value -> value
    | None -> fail pos "void function %s used as value" name)
  | Ast.Nondet (lo_expr, hi_expr) ->
    let lo = eval env hooks frame lo_expr in
    let hi = eval env hooks frame hi_expr in
    if lo > hi then fail pos "nondet with empty range [%d, %d]" lo hi
    else hooks.nondet ~lo ~hi
  | Ast.Mem_read addr_expr ->
    hooks.mem_read (eval env hooks frame addr_expr)

and assign env hooks frame pos lhs value =
  match lhs with
  | Ast.Lvar name -> (
    match lookup_local frame name with
    | Some cell -> cell := value
    | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some (Scalar cell) -> cell := value
      | Some (Array _) -> fail pos "cannot assign whole array %s" name
      | None -> fail pos "unknown variable %s" name))
  | Ast.Lindex (name, index_expr) -> (
    let index = eval env hooks frame index_expr in
    match Hashtbl.find_opt env.globals name with
    | Some (Array data) ->
      if index < 0 || index >= Array.length data then
        fail pos "index %d out of bounds for %s[%d]" index name
          (Array.length data)
      else data.(index) <- value
    | Some (Scalar _) | None -> fail pos "%s is not an array" name)
  | Ast.Lmem addr_expr ->
    hooks.mem_write (eval env hooks frame addr_expr) value

and exec env hooks frame fuel (s : Ast.stmt) =
  if !fuel <= 0 then raise Out_of_fuel;
  decr fuel;
  env.stmt_count <- env.stmt_count + 1;
  hooks.on_statement s;
  let pos = s.Ast.spos in
  match s.Ast.sdesc with
  | Ast.Block body ->
    let scope = Hashtbl.create 8 in
    exec_list env hooks (scope :: frame) fuel body
  | Ast.Decl (name, _typ, init) -> (
    let value =
      match init with Some e -> eval env hooks frame e | None -> 0
    in
    match frame with
    | scope :: _ -> Hashtbl.replace scope name (ref value)
    | [] -> fail pos "declaration outside any scope")
  | Ast.Expr e -> (
    match e.Ast.edesc with
    | Ast.Call (name, arg_exprs) ->
      let args = List.map (eval env hooks frame) arg_exprs in
      ignore (call_function env hooks e.Ast.epos name args)
    | _ -> ignore (eval env hooks frame e))
  | Ast.Assign (lhs, value_expr) ->
    let value = eval env hooks frame value_expr in
    assign env hooks frame pos lhs value
  | Ast.If (cond, then_s, else_s) ->
    if Value.to_bool (eval env hooks frame cond) then
      exec env hooks frame fuel then_s
    else Option.iter (exec env hooks frame fuel) else_s
  | Ast.While (cond, body) ->
    let rec loop () =
      if Value.to_bool (eval env hooks frame cond) then begin
        (try exec env hooks frame fuel body
         with Continue_signal -> ());
        loop ()
      end
    in
    (try loop () with Break_signal -> ())
  | Ast.Do_while (body, cond) ->
    let rec loop () =
      (try exec env hooks frame fuel body with Continue_signal -> ());
      if Value.to_bool (eval env hooks frame cond) then loop ()
    in
    (try loop () with Break_signal -> ())
  | Ast.For (init, cond, step, body) ->
    let scope = Hashtbl.create 4 in
    let frame = scope :: frame in
    Option.iter (exec env hooks frame fuel) init;
    let check () =
      match cond with
      | None -> true
      | Some e -> Value.to_bool (eval env hooks frame e)
    in
    let rec loop () =
      if check () then begin
        (try exec env hooks frame fuel body with Continue_signal -> ());
        Option.iter (exec env hooks frame fuel) step;
        loop ()
      end
    in
    (try loop () with Break_signal -> ())
  | Ast.Switch (scrutinee, cases) ->
    let value = eval env hooks frame scrutinee in
    let matches case =
      List.exists
        (function Ast.Case v -> v = value | Ast.Default -> false)
        case.Ast.labels
    in
    let has_default case = List.mem Ast.Default case.Ast.labels in
    let rec find pred = function
      | [] -> None
      | case :: rest when pred case -> Some (case :: rest)
      | _ :: rest -> find pred rest
    in
    let entry =
      match find matches cases with
      | Some tail -> Some tail
      | None -> find has_default cases
    in
    (match entry with
    | Some tail -> run_cases env hooks frame fuel tail
    | None -> ())
  | Ast.Break -> raise Break_signal
  | Ast.Continue -> raise Continue_signal
  | Ast.Return value_expr ->
    raise
      (Return_signal (Option.map (eval env hooks frame) value_expr))
  | Ast.Assert e ->
    if not (Value.to_bool (eval env hooks frame e)) then
      raise (Assertion_failed pos)
  | Ast.Assume e ->
    if not (Value.to_bool (eval env hooks frame e)) then
      raise (Assumption_failed pos)
  | Ast.Halt -> raise Halt_signal

and run_cases env hooks frame fuel tail =
  (* fall-through execution until Break or end of switch *)
  let scope = Hashtbl.create 4 in
  let frame = scope :: frame in
  try
    List.iter
      (fun case -> exec_list env hooks frame fuel case.Ast.body)
      tail
  with Break_signal -> ()

and exec_list env hooks frame fuel body =
  List.iter (exec env hooks frame fuel) body

(* [pos] is the call's, for the call-depth error. Any exception but
   [Return_signal] ends the whole run, so the depth is only restored on
   a return. *)
and call_function env hooks pos name args =
  match Hashtbl.find_opt env.funcs name with
  | None -> raise (Runtime_error ("unknown function " ^ name, Ast.dummy_pos))
  | Some func ->
    if env.depth >= Vm.max_call_depth then
      fail pos "call depth exceeds %d" Vm.max_call_depth;
    env.depth <- env.depth + 1;
    let scope = Hashtbl.create 8 in
    List.iter2
      (fun (param, _typ) value -> Hashtbl.replace scope param (ref value))
      func.Ast.f_params args;
    hooks.on_function_entry name;
    let fuel = env.current_fuel in
    let result =
      try
        exec_list env hooks [ scope ] fuel func.Ast.f_body;
        (* fell off the end *)
        match func.Ast.f_ret with Ast.Tvoid -> None | _ -> Some 0
      with Return_signal value -> (
        match func.Ast.f_ret, value with
        | Ast.Tvoid, _ -> None
        | _, Some v -> Some v
        | _, None -> Some 0)
    in
    env.depth <- env.depth - 1;
    result

let create info =
  let prog = Typecheck.program info in
  let globals : (string, cell) Hashtbl.t = Hashtbl.create 64 in
  let consts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let funcs : (string, Ast.func) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funcs f.Ast.f_name f) prog.Ast.funcs;
  let env =
    {
      info;
      globals;
      consts;
      funcs;
      stmt_count = 0;
      current_fuel = ref 0;
      depth = 0;
    }
  in
  (* initializers may reference previously initialized globals *)
  let hooks = default_hooks () in
  List.iter
    (fun (g : Ast.global) ->
      let init_value =
        match g.Ast.g_init with
        | None -> 0
        | Some e -> eval env hooks [] e
      in
      if g.Ast.g_const then Hashtbl.replace consts g.Ast.g_name init_value
      else
        match g.Ast.g_type with
        | Ast.Tarray size ->
          Hashtbl.replace globals g.Ast.g_name (Array (Array.make size 0))
        | Ast.Tint | Ast.Tbool | Ast.Tvoid ->
          Hashtbl.replace globals g.Ast.g_name (Scalar (ref init_value)))
    prog.Ast.globals;
  env

let read_global env name =
  match Hashtbl.find_opt env.globals name with
  | Some (Scalar cell) -> !cell
  | Some (Array _) -> invalid_arg ("Interp.read_global: array " ^ name)
  | None -> (
    match Hashtbl.find_opt env.consts name with
    | Some v -> v
    | None -> invalid_arg ("Interp.read_global: unknown " ^ name))

let write_global env name value =
  match Hashtbl.find_opt env.globals name with
  | Some (Scalar cell) -> cell := value
  | Some (Array _) | None ->
    invalid_arg ("Interp.write_global: not a scalar global: " ^ name)

let globals_snapshot env =
  Hashtbl.fold
    (fun name cell acc ->
      match cell with Scalar v -> (name, !v) :: acc | Array _ -> acc)
    env.globals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let statements_executed env = env.stmt_count

let run ?(fuel = 10_000_000) env hooks ~entry =
  (match Hashtbl.find_opt env.funcs entry with
  | None -> invalid_arg ("Interp.run: no function " ^ entry)
  | Some f ->
    if f.Ast.f_params <> [] then
      invalid_arg ("Interp.run: entry function takes parameters: " ^ entry));
  env.current_fuel <- ref fuel;
  env.depth <- 0;
  match call_function env hooks Ast.dummy_pos entry [] with
  | value -> Finished value
  | exception Halt_signal -> Halted
  | exception Out_of_fuel -> Fuel_exhausted
