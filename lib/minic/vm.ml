(* Bytecode virtual machine — the fast execution backend.

   Executes {!Bytecode.t} produced by {!Compile}. One OCaml call frame
   per MiniC call: locals live in an int array sized at compile time,
   operands in a per-call stack sized by the compiler's bound, and the
   dispatch loop is a single match over the instruction at [pc]. All
   observable behavior — hook order, statement counting, fuel
   accounting, error messages and their positions, 32-bit arithmetic —
   reproduces {!Interp} exactly; the interpreter stays the reference
   oracle and the differential tests in [test/test_vm.ml] hold the two
   together. *)

type t = {
  prog : Bytecode.t;
  globals : int array;  (* scalar store, slot order *)
  arrays : int array array;
  mutable stmt_count : int;
}

exception Halt

let create prog =
  {
    prog;
    globals = Array.copy prog.Bytecode.global_init;
    arrays =
      Array.map
        (fun info -> Array.make info.Bytecode.arr_len 0)
        prog.Bytecode.arrays;
    stmt_count = 0;
  }

let reset vm =
  Array.blit vm.prog.Bytecode.global_init 0 vm.globals 0
    (Array.length vm.globals);
  Array.iter (fun data -> Array.fill data 0 (Array.length data) 0) vm.arrays;
  vm.stmt_count <- 0

let fail prog pos_index fmt =
  Printf.ksprintf
    (fun m ->
      raise (Interp.Runtime_error (m, prog.Bytecode.positions.(pos_index))))
    fmt

let rec exec_fn vm (hooks : Interp.hooks) fuel fn_index (frame : int array) =
  let prog = vm.prog in
  (* hoist the per-dispatch indirections out of the loop: the code and
     constant pools, the scalar store and the statement hook are each
     read once per function activation, not once per opcode *)
  let code = prog.Bytecode.code in
  let consts = prog.Bytecode.consts in
  let stmts = prog.Bytecode.stmts in
  let globals = vm.globals in
  let on_statement = hooks.Interp.on_statement in
  let fn = prog.Bytecode.funcs.(fn_index) in
  let stack = Array.make fn.Bytecode.fn_stack 0 in
  (* [sp]/[pc] stay register-allocated as long as no closure captures
     them, so all stack traffic is open-coded rather than routed through
     push/pop helpers. Stack and code indices are compiler-produced and
     bounded at compile time ([fn_stack], jump targets, pool indices);
     the differential tests in test/test_vm.ml back the unsafe reads. *)
  let sp = ref 0 in
  let pc = ref fn.Bytecode.fn_entry in
  let result = ref 0 in
  let running = ref true in
  while !running do
    let instr = Array.unsafe_get code !pc in
    incr pc;
    match instr with
    | Bytecode.Push v ->
      Array.unsafe_set stack !sp v;
      incr sp
    | Bytecode.Const i ->
      Array.unsafe_set stack !sp (Array.unsafe_get consts i);
      incr sp
    | Bytecode.Load_local slot ->
      Array.unsafe_set stack !sp frame.(slot);
      incr sp
    | Bytecode.Store_local slot ->
      decr sp;
      frame.(slot) <- Array.unsafe_get stack !sp
    | Bytecode.Load_global slot ->
      Array.unsafe_set stack !sp globals.(slot);
      incr sp
    | Bytecode.Store_global slot ->
      decr sp;
      globals.(slot) <- Array.unsafe_get stack !sp
    | Bytecode.Load_elem (slot, pos) ->
      decr sp;
      let index = Array.unsafe_get stack !sp in
      let data = vm.arrays.(slot) in
      if index < 0 || index >= Array.length data then
        fail prog pos "index %d out of bounds for %s[%d]" index
          prog.Bytecode.arrays.(slot).Bytecode.arr_name (Array.length data)
      else begin
        Array.unsafe_set stack !sp data.(index);
        incr sp
      end
    | Bytecode.Store_elem (slot, pos) ->
      decr sp;
      let index = Array.unsafe_get stack !sp in
      decr sp;
      let value = Array.unsafe_get stack !sp in
      let data = vm.arrays.(slot) in
      if index < 0 || index >= Array.length data then
        fail prog pos "index %d out of bounds for %s[%d]" index
          prog.Bytecode.arrays.(slot).Bytecode.arr_name (Array.length data)
      else data.(index) <- value
    | Bytecode.Unop op ->
      let top = !sp - 1 in
      let v = Array.unsafe_get stack top in
      Array.unsafe_set stack top
        (match op with
        | Ast.Neg -> Value.neg v
        | Ast.Bitnot -> Value.lognot v
        | Ast.Lognot -> Value.of_bool (not (Value.to_bool v)))
    | Bytecode.Binop op ->
      decr sp;
      let b = Array.unsafe_get stack !sp in
      let top = !sp - 1 in
      let a = Array.unsafe_get stack top in
      Array.unsafe_set stack top
        (match op with
        | Ast.Add -> Value.add a b
        | Ast.Sub -> Value.sub a b
        | Ast.Mul -> Value.mul a b
        | Ast.Band -> Value.logand a b
        | Ast.Bor -> Value.logor a b
        | Ast.Bxor -> Value.logxor a b
        | Ast.Shl -> Value.shift_left a b
        | Ast.Shr -> Value.shift_right a b
        | Ast.Lt -> Value.of_bool (a < b)
        | Ast.Le -> Value.of_bool (a <= b)
        | Ast.Gt -> Value.of_bool (a > b)
        | Ast.Ge -> Value.of_bool (a >= b)
        | Ast.Eq -> Value.of_bool (a = b)
        | Ast.Ne -> Value.of_bool (a <> b)
        | Ast.Div | Ast.Mod | Ast.Land | Ast.Lor ->
          (* compiled to Div_chk/Mod_chk/short-circuit jumps *)
          assert false)
    | Bytecode.Div_chk pos -> (
      decr sp;
      let b = Array.unsafe_get stack !sp in
      let top = !sp - 1 in
      let a = Array.unsafe_get stack top in
      match Value.div a b with
      | q -> Array.unsafe_set stack top q
      | exception Value.Division_by_zero ->
        fail prog pos "division by zero")
    | Bytecode.Mod_chk pos -> (
      decr sp;
      let b = Array.unsafe_get stack !sp in
      let top = !sp - 1 in
      let a = Array.unsafe_get stack top in
      match Value.rem a b with
      | r -> Array.unsafe_set stack top r
      | exception Value.Division_by_zero ->
        fail prog pos "division by zero")
    | Bytecode.Bool_cast ->
      let top = !sp - 1 in
      Array.unsafe_set stack top
        (Value.of_bool (Value.to_bool (Array.unsafe_get stack top)))
    | Bytecode.Jump target -> pc := target
    | Bytecode.Jump_if_false target ->
      decr sp;
      if not (Value.to_bool (Array.unsafe_get stack !sp)) then pc := target
    | Bytecode.Jump_if_true target ->
      decr sp;
      if Value.to_bool (Array.unsafe_get stack !sp) then pc := target
    | Bytecode.Call callee_index ->
      let callee = prog.Bytecode.funcs.(callee_index) in
      let callee_frame = Array.make (max callee.Bytecode.fn_frame 1) 0 in
      for i = callee.Bytecode.fn_nparams - 1 downto 0 do
        decr sp;
        callee_frame.(i) <- Array.unsafe_get stack !sp
      done;
      Array.unsafe_set stack !sp (exec_fn vm hooks fuel callee_index callee_frame);
      incr sp
    | Bytecode.Ret ->
      decr sp;
      result := Array.unsafe_get stack !sp;
      running := false
    | Bytecode.Pop -> decr sp
    | Bytecode.Tick stmt ->
      if !fuel <= 0 then raise Interp.Out_of_fuel;
      decr fuel;
      vm.stmt_count <- vm.stmt_count + 1;
      on_statement (Array.unsafe_get stmts stmt)
    | Bytecode.Obs_entry f ->
      hooks.Interp.on_function_entry prog.Bytecode.funcs.(f).Bytecode.fn_name
    | Bytecode.Obs_mem_read ->
      let top = !sp - 1 in
      Array.unsafe_set stack top
        (hooks.Interp.mem_read (Array.unsafe_get stack top))
    | Bytecode.Obs_mem_write ->
      decr sp;
      let addr = Array.unsafe_get stack !sp in
      decr sp;
      let value = Array.unsafe_get stack !sp in
      hooks.Interp.mem_write addr value
    | Bytecode.Nondet_op pos ->
      decr sp;
      let hi = Array.unsafe_get stack !sp in
      let top = !sp - 1 in
      let lo = Array.unsafe_get stack top in
      if lo > hi then fail prog pos "nondet with empty range [%d, %d]" lo hi
      else Array.unsafe_set stack top (hooks.Interp.nondet ~lo ~hi)
    | Bytecode.Assert_op pos ->
      decr sp;
      if not (Value.to_bool (Array.unsafe_get stack !sp)) then
        raise (Interp.Assertion_failed prog.Bytecode.positions.(pos))
    | Bytecode.Assume_op pos ->
      decr sp;
      if not (Value.to_bool (Array.unsafe_get stack !sp)) then
        raise (Interp.Assumption_failed prog.Bytecode.positions.(pos))
    | Bytecode.Halt_op -> raise Halt
  done;
  !result

let call_index vm hooks ~fuel fn_index args =
  let fn = vm.prog.Bytecode.funcs.(fn_index) in
  let frame = Array.make (max fn.Bytecode.fn_frame 1) 0 in
  List.iteri
    (fun i value -> if i < fn.Bytecode.fn_nparams then frame.(i) <- value)
    args;
  let result = exec_fn vm hooks fuel fn_index frame in
  if fn.Bytecode.fn_void then None else Some result

let call vm hooks ~fuel name args =
  match Hashtbl.find_opt vm.prog.Bytecode.func_of_name name with
  | None ->
    raise (Interp.Runtime_error ("unknown function " ^ name, Ast.dummy_pos))
  | Some fn_index ->
    let fn = vm.prog.Bytecode.funcs.(fn_index) in
    if List.length args <> fn.Bytecode.fn_nparams then
      invalid_arg ("Vm.call: arity mismatch for " ^ name);
    call_index vm hooks ~fuel fn_index args

let run ?(fuel = 10_000_000) vm hooks ~entry =
  (match Hashtbl.find_opt vm.prog.Bytecode.func_of_name entry with
  | None -> invalid_arg ("Vm.run: no function " ^ entry)
  | Some fn_index ->
    if vm.prog.Bytecode.funcs.(fn_index).Bytecode.fn_nparams <> 0 then
      invalid_arg ("Vm.run: entry function takes parameters: " ^ entry));
  let fuel_ref = ref fuel in
  match call vm hooks ~fuel:fuel_ref entry [] with
  | value -> Interp.Finished value
  | exception Halt -> Interp.Halted
  | exception Interp.Out_of_fuel -> Interp.Fuel_exhausted

let read_global vm name =
  match Hashtbl.find_opt vm.prog.Bytecode.global_of_name name with
  | Some slot -> vm.globals.(slot)
  | None -> (
    if Hashtbl.mem vm.prog.Bytecode.array_of_name name then
      invalid_arg ("Vm.read_global: array " ^ name)
    else
      match List.assoc_opt name vm.prog.Bytecode.const_globals with
      | Some v -> v
      | None -> invalid_arg ("Vm.read_global: unknown " ^ name))

let write_global vm name value =
  match Hashtbl.find_opt vm.prog.Bytecode.global_of_name name with
  | Some slot -> vm.globals.(slot) <- value
  | None -> invalid_arg ("Vm.write_global: not a scalar global: " ^ name)

let read_element vm name index =
  match Hashtbl.find_opt vm.prog.Bytecode.array_of_name name with
  | Some slot ->
    let data = vm.arrays.(slot) in
    if index < 0 || index >= Array.length data then
      raise
        (Interp.Runtime_error
           ( Printf.sprintf "index %d out of bounds for %s" index name,
             Ast.dummy_pos ))
    else data.(index)
  | None -> invalid_arg ("Vm.read_element: not an array: " ^ name)

let globals_snapshot vm =
  Array.to_list
    (Array.mapi
       (fun slot name -> (name, vm.globals.(slot)))
       vm.prog.Bytecode.globals)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let statements_executed vm = vm.stmt_count
