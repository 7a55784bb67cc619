(* The MiniC executor: a bytecode virtual machine.

   Executes {!Bytecode.t} produced by {!Compile}. The MiniC call stack is
   the VM's own data, not OCaml's: every activation's locals and
   operands sit in one int array ([stack]: a frame's locals from its
   base, its operands above them), and each call's return pc and
   caller's frame base in another ([frames]). So one dispatch loop runs
   the whole program without recursing, the call depth is bounded by
   [max_call_depth] and not by the OCaml stack, and the loop can stop
   just after any statement tick and resume there later ({!step}).
   The tree-walking {!Interp} is the tests' oracle: the differential
   tests in [test/test_vm.ml] hold the VM's hook order, statement
   counting, fuel accounting, error messages and their positions, and
   32-bit arithmetic to the interpreter's. *)

type outcome = Finished of int option | Halted | Fuel_exhausted

exception Assertion_failed of Ast.position
exception Assumption_failed of Ast.position
exception Runtime_error of string * Ast.position

(* what [tcheck run] prints, and the reason a crashed derived model
   gives in its [software_crashed] trace event *)
let () =
  Printexc.register_printer (function
    | Assertion_failed p ->
      Some (Printf.sprintf "assertion failed at %d:%d" p.Ast.line p.Ast.column)
    | Assumption_failed p ->
      Some
        (Printf.sprintf "assumption failed at %d:%d" p.Ast.line p.Ast.column)
    | Runtime_error (msg, p) ->
      Some
        (Printf.sprintf "runtime error at %d:%d: %s" p.Ast.line p.Ast.column
           msg)
    | _ -> None)

let max_call_depth = 10_000

type hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;
  on_function_entry : string -> unit;
}

let default_hooks () =
  let memory : (int, int) Hashtbl.t = Hashtbl.create 64 in
  {
    mem_read =
      (fun addr ->
        match Hashtbl.find_opt memory addr with Some v -> v | None -> 0);
    mem_write = (fun addr value -> Hashtbl.replace memory addr value);
    nondet = (fun ~lo ~hi:_ -> lo);
    on_statement = (fun _ -> ());
    on_function_entry = (fun _ -> ());
  }

type t = {
  prog : Bytecode.t;
  globals : int array;  (* scalar store, slot order *)
  arrays : int array array;
  mutable stmt_count : int;
  (* the run in progress, saved here while it is paused after a tick *)
  mutable stack : int array;
  mutable frames : int array;  (* per caller depth d: return pc, frame base *)
  mutable pc : int;
  mutable sp : int;
  mutable fp : int;
  mutable depth : int;  (* active calls, the entry's included *)
  mutable fuel : int;
  mutable hooks : hooks;
  mutable entry_void : bool;
  mutable paused : bool;
}

type progress = Ticked | Ended of outcome

(* The bytecode of [info], compiled by the first VM of that info and
   shared by every later one: a campaign of thousands of sessions over
   one checked program lowers it once. Two domains may both find the
   slot empty and both compile; [compare_and_set] stores exactly one
   program and the loser adopts it, so every VM of one info runs the
   same [Bytecode.t]. Sharing is safe because a VM writes only its own
   frames, globals and array copies, never the program. *)
let program info =
  let slot = Typecheck.vm_program info in
  match Atomic.get slot with
  | Some prog -> prog
  | None ->
    let prog = Compile.compile info in
    if Atomic.compare_and_set slot None (Some prog) then prog
    else Option.get (Atomic.get slot)

let create info =
  let prog = program info in
  {
    prog;
    globals = Array.copy prog.Bytecode.global_init;
    arrays =
      Array.map
        (fun info -> Array.make info.Bytecode.arr_len 0)
        prog.Bytecode.arrays;
    stmt_count = 0;
    stack = Array.make 256 0;
    frames = Array.make 64 0;
    pc = 0;
    sp = 0;
    fp = 0;
    depth = 0;
    fuel = 0;
    hooks = default_hooks ();
    entry_void = true;
    paused = false;
  }

let reset vm =
  Array.blit vm.prog.Bytecode.global_init 0 vm.globals 0
    (Array.length vm.globals);
  Array.iter (fun data -> Array.fill data 0 (Array.length data) 0) vm.arrays;
  vm.stmt_count <- 0;
  vm.paused <- false

let fail prog pos_index fmt =
  Printf.ksprintf
    (fun m ->
      raise (Runtime_error (m, prog.Bytecode.positions.(pos_index))))
    fmt

let grown array needed =
  let bigger = Array.make (max needed (2 * Array.length array)) 0 in
  Array.blit array 0 bigger 0 (Array.length array);
  bigger

(* Run the paused program until it ends or, when [pause], until just
   after the next statement tick, whose hook has then run. *)
let exec vm ~pause =
  let prog = vm.prog in
  (* hoist the per-dispatch indirections out of the loop: the code and
     constant pools, the scalar store and the statement hook are each
     read once per call of [exec], not once per opcode *)
  let code = prog.Bytecode.code in
  let consts = prog.Bytecode.consts in
  let stmts = prog.Bytecode.stmts in
  let funcs = prog.Bytecode.funcs in
  let globals = vm.globals in
  let hooks = vm.hooks in
  let on_statement = hooks.on_statement in
  (* [sp]/[pc]/[fp] stay register-allocated as long as no closure
     captures them, so all stack traffic is open-coded rather than
     routed through push/pop helpers. Frame slots, operand depths, jump
     targets and pool indices are compiler-produced and bounded at
     compile time ([fn_frame], [fn_stack]), and a call grows [stack] to
     hold the callee's frame before it runs; the differential tests in
     test/test_vm.ml back the unsafe reads. *)
  let stack = ref vm.stack in
  let sp = ref vm.sp in
  let fp = ref vm.fp in
  let pc = ref vm.pc in
  let depth = ref vm.depth in
  let fuel = ref vm.fuel in
  let progress = ref Ticked in
  let running = ref true in
  vm.paused <- false;
  while !running do
    let instr = Array.unsafe_get code !pc in
    incr pc;
    match instr with
    | Bytecode.Push v ->
      Array.unsafe_set !stack !sp v;
      incr sp
    | Bytecode.Const i ->
      Array.unsafe_set !stack !sp (Array.unsafe_get consts i);
      incr sp
    | Bytecode.Load_local slot ->
      Array.unsafe_set !stack !sp (Array.unsafe_get !stack (!fp + slot));
      incr sp
    | Bytecode.Store_local slot ->
      decr sp;
      Array.unsafe_set !stack (!fp + slot) (Array.unsafe_get !stack !sp)
    | Bytecode.Load_global slot ->
      Array.unsafe_set !stack !sp globals.(slot);
      incr sp
    | Bytecode.Store_global slot ->
      decr sp;
      globals.(slot) <- Array.unsafe_get !stack !sp
    | Bytecode.Load_elem (slot, pos) ->
      decr sp;
      let index = Array.unsafe_get !stack !sp in
      let data = vm.arrays.(slot) in
      if index < 0 || index >= Array.length data then
        fail prog pos "index %d out of bounds for %s[%d]" index
          prog.Bytecode.arrays.(slot).Bytecode.arr_name (Array.length data)
      else begin
        Array.unsafe_set !stack !sp data.(index);
        incr sp
      end
    | Bytecode.Store_elem (slot, pos) ->
      decr sp;
      let index = Array.unsafe_get !stack !sp in
      decr sp;
      let value = Array.unsafe_get !stack !sp in
      let data = vm.arrays.(slot) in
      if index < 0 || index >= Array.length data then
        fail prog pos "index %d out of bounds for %s[%d]" index
          prog.Bytecode.arrays.(slot).Bytecode.arr_name (Array.length data)
      else data.(index) <- value
    | Bytecode.Unop op ->
      let top = !sp - 1 in
      let v = Array.unsafe_get !stack top in
      Array.unsafe_set !stack top
        (match op with
        | Ast.Neg -> Value.neg v
        | Ast.Bitnot -> Value.lognot v
        | Ast.Lognot -> Value.of_bool (not (Value.to_bool v)))
    | Bytecode.Binop op ->
      decr sp;
      let b = Array.unsafe_get !stack !sp in
      let top = !sp - 1 in
      let a = Array.unsafe_get !stack top in
      Array.unsafe_set !stack top
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
      let b = Array.unsafe_get !stack !sp in
      let top = !sp - 1 in
      let a = Array.unsafe_get !stack top in
      match Value.div a b with
      | q -> Array.unsafe_set !stack top q
      | exception Value.Division_by_zero ->
        fail prog pos "division by zero")
    | Bytecode.Mod_chk pos -> (
      decr sp;
      let b = Array.unsafe_get !stack !sp in
      let top = !sp - 1 in
      let a = Array.unsafe_get !stack top in
      match Value.rem a b with
      | r -> Array.unsafe_set !stack top r
      | exception Value.Division_by_zero ->
        fail prog pos "division by zero")
    | Bytecode.Bool_cast ->
      let top = !sp - 1 in
      Array.unsafe_set !stack top
        (Value.of_bool (Value.to_bool (Array.unsafe_get !stack top)))
    | Bytecode.Jump target -> pc := target
    | Bytecode.Jump_if_false target ->
      decr sp;
      if not (Value.to_bool (Array.unsafe_get !stack !sp)) then pc := target
    | Bytecode.Jump_if_true target ->
      decr sp;
      if Value.to_bool (Array.unsafe_get !stack !sp) then pc := target
    | Bytecode.Call (callee_index, pos) ->
      if !depth >= max_call_depth then
        fail prog pos "call depth exceeds %d" max_call_depth;
      (* the arguments on top of the caller's operands become the
         callee's first locals *)
      let callee = Array.unsafe_get funcs callee_index in
      let nparams = callee.Bytecode.fn_nparams in
      let base = !sp - nparams in
      let locals = base + callee.Bytecode.fn_frame in
      let top = locals + callee.Bytecode.fn_stack in
      if top > Array.length !stack then begin
        stack := grown !stack top;
        vm.stack <- !stack
      end;
      for slot = base + nparams to locals - 1 do
        Array.unsafe_set !stack slot 0
      done;
      let link = 2 * !depth in
      if link + 2 > Array.length vm.frames then
        vm.frames <- grown vm.frames (link + 2);
      let frames = vm.frames in
      Array.unsafe_set frames link !pc;
      Array.unsafe_set frames (link + 1) !fp;
      incr depth;
      fp := base;
      sp := locals;
      pc := callee.Bytecode.fn_entry
    | Bytecode.Ret ->
      let result = Array.unsafe_get !stack (!sp - 1) in
      decr depth;
      if !depth = 0 then begin
        progress :=
          Ended (Finished (if vm.entry_void then None else Some result));
        running := false
      end
      else begin
        let link = 2 * !depth in
        let base = !fp in
        pc := Array.unsafe_get vm.frames link;
        fp := Array.unsafe_get vm.frames (link + 1);
        Array.unsafe_set !stack base result;
        sp := base + 1
      end
    | Bytecode.Pop -> decr sp
    | Bytecode.Tick stmt ->
      if !fuel <= 0 then begin
        progress := Ended Fuel_exhausted;
        running := false
      end
      else begin
        decr fuel;
        vm.stmt_count <- vm.stmt_count + 1;
        on_statement (Array.unsafe_get stmts stmt);
        if pause then begin
          vm.pc <- !pc;
          vm.sp <- !sp;
          vm.fp <- !fp;
          vm.depth <- !depth;
          vm.fuel <- !fuel;
          vm.paused <- true;
          running := false
        end
      end
    | Bytecode.Obs_entry f ->
      hooks.on_function_entry
        (Array.unsafe_get funcs f).Bytecode.fn_name
    | Bytecode.Obs_mem_read ->
      let top = !sp - 1 in
      Array.unsafe_set !stack top
        (hooks.mem_read (Array.unsafe_get !stack top))
    | Bytecode.Obs_mem_write ->
      decr sp;
      let addr = Array.unsafe_get !stack !sp in
      decr sp;
      let value = Array.unsafe_get !stack !sp in
      hooks.mem_write addr value
    | Bytecode.Nondet_op pos ->
      decr sp;
      let hi = Array.unsafe_get !stack !sp in
      let top = !sp - 1 in
      let lo = Array.unsafe_get !stack top in
      if lo > hi then fail prog pos "nondet with empty range [%d, %d]" lo hi
      else Array.unsafe_set !stack top (hooks.nondet ~lo ~hi)
    | Bytecode.Assert_op pos ->
      decr sp;
      if not (Value.to_bool (Array.unsafe_get !stack !sp)) then
        raise (Assertion_failed prog.Bytecode.positions.(pos))
    | Bytecode.Assume_op pos ->
      decr sp;
      if not (Value.to_bool (Array.unsafe_get !stack !sp)) then
        raise (Assumption_failed prog.Bytecode.positions.(pos))
    | Bytecode.Halt_op ->
      progress := Ended Halted;
      running := false
  done;
  !progress

let start ?(fuel = 10_000_000) vm hooks ~entry =
  let fn =
    match Hashtbl.find_opt vm.prog.Bytecode.func_of_name entry with
    | None -> invalid_arg ("Vm.run: no function " ^ entry)
    | Some fn_index ->
      let fn = vm.prog.Bytecode.funcs.(fn_index) in
      if fn.Bytecode.fn_nparams <> 0 then
        invalid_arg ("Vm.run: entry function takes parameters: " ^ entry);
      fn
  in
  let top = fn.Bytecode.fn_frame + fn.Bytecode.fn_stack in
  if top > Array.length vm.stack then vm.stack <- grown vm.stack top;
  Array.fill vm.stack 0 fn.Bytecode.fn_frame 0;
  vm.pc <- fn.Bytecode.fn_entry;
  vm.fp <- 0;
  vm.sp <- fn.Bytecode.fn_frame;
  vm.depth <- 1;
  vm.fuel <- fuel;
  vm.hooks <- hooks;
  vm.entry_void <- fn.Bytecode.fn_void;
  vm.paused <- true

let step vm =
  if not vm.paused then invalid_arg "Vm.step: no run is paused";
  exec vm ~pause:true

let run ?fuel vm hooks ~entry =
  start ?fuel vm hooks ~entry;
  match exec vm ~pause:false with
  | Ended outcome -> outcome
  | Ticked -> assert false

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

let global_reader vm name =
  match Hashtbl.find_opt vm.prog.Bytecode.global_of_name name with
  | Some slot ->
    let globals = vm.globals in
    fun () -> Array.unsafe_get globals slot
  | None ->
    let value = read_global vm name in
    fun () -> value

let read_element vm name index =
  match Hashtbl.find_opt vm.prog.Bytecode.array_of_name name with
  | Some slot ->
    let data = vm.arrays.(slot) in
    if index < 0 || index >= Array.length data then
      raise
        (Runtime_error
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
