(** Flat bytecode for MiniC (the VM's program form).

    One instruction array for the whole program; variables are resolved
    to integer slots at compile time (locals to frame slots, scalar
    globals and arrays to their own stores), literals to the constants
    pool, and the execution observation points — statement-counter tick
    ([on_statement]), function entry ([fname]) and virtual-memory access
    — are explicit opcodes ({!Tick}, {!Obs_entry}, {!Obs_mem_read} /
    {!Obs_mem_write}), so a VM run preserves the interpreter's event
    sequence, the PC-event timing reference included. Produced by
    {!Compile.compile}, executed by {!Vm}. *)

type instr =
  | Push of int  (** push an immediate (compiler-generated 0/1 etc.) *)
  | Const of int  (** push [consts.(i)] from the constants pool *)
  | Load_local of int
  | Store_local of int
  | Load_global of int
  | Store_global of int
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
  fn_void : bool;
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
