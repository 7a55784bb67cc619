(* Flat bytecode for MiniC — the instruction set the VM executes.

   The program is one instruction array shared by all functions; every
   variable reference is resolved at compile time to an integer slot
   (locals into the frame, scalar globals and arrays into their own
   stores), literals go through the constants pool, and the observation
   points of the derived-model execution — the statement-counter tick
   with its [on_statement] payload, the [fname] function-entry event and
   the virtual-memory accesses — are explicit opcodes, so a VM run
   produces exactly the interpreter's event sequence. *)

type instr =
  | Push of int  (** push an immediate (compiler-generated 0/1 etc.) *)
  | Const of int  (** push [consts.(i)] from the constants pool *)
  | Load_local of int  (** push frame slot *)
  | Store_local of int  (** pop into frame slot *)
  | Load_global of int  (** push scalar-global slot *)
  | Store_global of int  (** pop into scalar-global slot *)
  | Load_elem of int * int  (** array slot, position index; pops the index *)
  | Store_elem of int * int
      (** array slot, position index; pops the index, then the value *)
  | Unop of Ast.unop
  | Binop of Ast.binop
      (** straight-line operators only: [Div]/[Mod] (checked) and
          [Land]/[Lor] (short-circuit jumps) are never emitted here *)
  | Div_chk of int  (** checked division; position index for the error *)
  | Mod_chk of int
  | Bool_cast  (** normalize the top of stack to 0/1 *)
  | Jump of int
  | Jump_if_false of int  (** pop; jump when zero *)
  | Jump_if_true of int  (** pop; jump when non-zero *)
  | Call of int * int
      (** function table index, position index for the call-depth error;
          pops the arguments *)
  | Ret  (** pop the return value, leave the function *)
  | Pop
  | Tick of int
      (** statement boundary: fuel check, statement counter,
          [on_statement stmts.(i)] — the PC-event timing reference *)
  | Obs_entry of int
      (** function table index: [on_function_entry] after parameters are
          bound (the [fname] observation point) *)
  | Obs_mem_read  (** pop an address, push [mem_read addr] (vmem) *)
  | Obs_mem_write  (** pop an address, then a value; [mem_write] (vmem) *)
  | Nondet_op of int  (** position index; pops [hi], then [lo] *)
  | Assert_op of int  (** position index; pop, raise when zero *)
  | Assume_op of int
  | Halt_op

type fn = {
  fn_name : string;
  fn_entry : int;  (** first instruction (the [Obs_entry]) *)
  fn_nparams : int;  (** parameters occupy frame slots 0..n-1 *)
  fn_frame : int;  (** frame slots including parameters *)
  fn_stack : int;  (** operand-stack bound (compile-time upper bound) *)
  fn_void : bool;  (** return type is [void] *)
}

type array_info = { arr_name : string; arr_len : int }

type t = {
  code : instr array;
  consts : int array;  (** the constants pool *)
  funcs : fn array;
  func_of_name : (string, int) Hashtbl.t;
  globals : string array;  (** scalar-global slot -> name, decl order *)
  global_of_name : (string, int) Hashtbl.t;
  global_init : int array;  (** initial scalar values (statically evaluated) *)
  arrays : array_info array;
  array_of_name : (string, int) Hashtbl.t;
  const_globals : (string * int) list;  (** const globals, decl order *)
  positions : Ast.position array;
  stmts : Ast.stmt array;  (** [Tick] payloads for [on_statement] *)
}

let instr_name = function
  | Push _ -> "push"
  | Const _ -> "const"
  | Load_local _ -> "lload"
  | Store_local _ -> "lstore"
  | Load_global _ -> "gload"
  | Store_global _ -> "gstore"
  | Load_elem _ -> "eload"
  | Store_elem _ -> "estore"
  | Unop _ -> "unop"
  | Binop _ -> "binop"
  | Div_chk _ -> "div"
  | Mod_chk _ -> "mod"
  | Bool_cast -> "bool"
  | Jump _ -> "jmp"
  | Jump_if_false _ -> "jz"
  | Jump_if_true _ -> "jnz"
  | Call _ -> "call"
  | Ret -> "ret"
  | Pop -> "pop"
  | Tick _ -> "tick"
  | Obs_entry _ -> "fentry"
  | Obs_mem_read -> "mrd"
  | Obs_mem_write -> "mwr"
  | Nondet_op _ -> "nondet"
  | Assert_op _ -> "assert"
  | Assume_op _ -> "assume"
  | Halt_op -> "halt"

let pp_instr prog fmt instr =
  let unop_name = function
    | Ast.Neg -> "neg"
    | Ast.Lognot -> "not"
    | Ast.Bitnot -> "bnot"
  in
  let binop_name = function
    | Ast.Add -> "add" | Ast.Sub -> "sub" | Ast.Mul -> "mul"
    | Ast.Div -> "div" | Ast.Mod -> "mod" | Ast.Band -> "and"
    | Ast.Bor -> "or" | Ast.Bxor -> "xor" | Ast.Shl -> "shl"
    | Ast.Shr -> "shr" | Ast.Lt -> "lt" | Ast.Le -> "le"
    | Ast.Gt -> "gt" | Ast.Ge -> "ge" | Ast.Eq -> "eq" | Ast.Ne -> "ne"
    | Ast.Land -> "land" | Ast.Lor -> "lor"
  in
  match instr with
  | Push v -> Format.fprintf fmt "push %d" v
  | Const i -> Format.fprintf fmt "const %d ; %d" i prog.consts.(i)
  | Load_local s -> Format.fprintf fmt "lload %d" s
  | Store_local s -> Format.fprintf fmt "lstore %d" s
  | Load_global s -> Format.fprintf fmt "gload %d ; %s" s prog.globals.(s)
  | Store_global s -> Format.fprintf fmt "gstore %d ; %s" s prog.globals.(s)
  | Load_elem (a, _) ->
    Format.fprintf fmt "eload %d ; %s" a prog.arrays.(a).arr_name
  | Store_elem (a, _) ->
    Format.fprintf fmt "estore %d ; %s" a prog.arrays.(a).arr_name
  | Unop op -> Format.fprintf fmt "unop %s" (unop_name op)
  | Binop op -> Format.fprintf fmt "binop %s" (binop_name op)
  | Div_chk _ -> Format.fprintf fmt "div"
  | Mod_chk _ -> Format.fprintf fmt "mod"
  | Bool_cast -> Format.fprintf fmt "bool"
  | Jump target -> Format.fprintf fmt "jmp %d" target
  | Jump_if_false target -> Format.fprintf fmt "jz %d" target
  | Jump_if_true target -> Format.fprintf fmt "jnz %d" target
  | Call (f, _) -> Format.fprintf fmt "call %d ; %s" f prog.funcs.(f).fn_name
  | Ret -> Format.fprintf fmt "ret"
  | Pop -> Format.fprintf fmt "pop"
  | Tick i ->
    let pos = prog.stmts.(i).Ast.spos in
    Format.fprintf fmt "tick %d ; %d:%d" i pos.Ast.line pos.Ast.column
  | Obs_entry f ->
    Format.fprintf fmt "fentry %d ; %s" f prog.funcs.(f).fn_name
  | Obs_mem_read -> Format.fprintf fmt "mrd"
  | Obs_mem_write -> Format.fprintf fmt "mwr"
  | Nondet_op _ -> Format.fprintf fmt "nondet"
  | Assert_op _ -> Format.fprintf fmt "assert"
  | Assume_op _ -> Format.fprintf fmt "assume"
  | Halt_op -> Format.fprintf fmt "halt"

let disassemble prog =
  let buffer = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buffer in
  Array.iter
    (fun fn ->
      Format.fprintf fmt "%s/%d (frame %d, stack %d)@." fn.fn_name
        fn.fn_nparams fn.fn_frame fn.fn_stack;
      let stop =
        (* a function's code ends where the next entry begins *)
        Array.fold_left
          (fun stop other ->
            if other.fn_entry > fn.fn_entry then min stop other.fn_entry
            else stop)
          (Array.length prog.code) prog.funcs
      in
      for pc = fn.fn_entry to stop - 1 do
        Format.fprintf fmt "  %4d  %a@." pc (pp_instr prog) prog.code.(pc)
      done)
    prog.funcs;
  Format.pp_print_flush fmt ();
  Buffer.contents buffer

let stats prog =
  Printf.sprintf "%d instructions, %d functions, %d consts, %d globals, %d arrays"
    (Array.length prog.code) (Array.length prog.funcs)
    (Array.length prog.consts) (Array.length prog.globals)
    (Array.length prog.arrays)
