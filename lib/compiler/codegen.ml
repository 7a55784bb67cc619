module Ast = Minic.Ast
module Typecheck = Minic.Typecheck

module Isa = Cpu.Isa
module Asm = Cpu.Asm
module Encode = Cpu.Encode
type compiled = {
  asm_source : string;
  instructions : Isa.instr list;
  words : int list;
  symtab : Symtab.t;
}

exception Codegen_error of string

(* Expression values live in r4..r11 (a register stack); deeper nesting
   spills to the machine stack.  r12/r14/r15 are scratch, r13 carries
   return values, r3 is the frame pointer, r2 the stack pointer. *)
let first_expr_reg = Isa.reg_e0
let last_expr_reg = Isa.reg_e_last

type ctx = {
  buf : Buffer.t;
  info : Typecheck.info;
  symtab : Symtab.t;
  fname_tracking : bool;
  mutable label_counter : int;
  mutable locals : (string * int) list; (* name -> fp-relative offset *)
  mutable next_slot : int;
  mutable break_labels : string list;
  mutable continue_labels : string list;
  mutable return_label : string;
}

let emit ctx fmt =
  Printf.ksprintf
    (fun line ->
      Buffer.add_string ctx.buf "  ";
      Buffer.add_string ctx.buf line;
      Buffer.add_char ctx.buf '\n')
    fmt

let emit_label ctx label =
  Buffer.add_string ctx.buf label;
  Buffer.add_string ctx.buf ":\n"

let fresh ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf "L%s_%d" prefix ctx.label_counter

(* load an arbitrary 32-bit constant *)
let load_const ctx reg value =
  if Isa.fits_imm14 value then emit ctx "addi r%d, r0, %d" reg value
  else begin
    let unsigned = value land 0xFFFFFFFF in
    let high = unsigned lsr 10 in
    let low = unsigned land 0x3FF in
    emit ctx "lui r%d, %d" reg high;
    if low <> 0 then emit ctx "ori r%d, r%d, %d" reg reg low
  end

let push ctx reg =
  emit ctx "addi r2, r2, -1";
  emit ctx "sw r%d, 0(r2)" reg

let pop ctx reg =
  emit ctx "lw r%d, 0(r2)" reg;
  emit ctx "addi r2, r2, 1"

let global_address ctx name =
  match Symtab.find_address ctx.symtab name with
  | Some addr -> addr
  | None -> raise (Codegen_error ("unknown global " ^ name))

(* 0/1-normalize the value in [reg] *)
let normalize_bool ctx reg =
  emit ctx "seq r%d, r%d, r0" reg reg;
  emit ctx "xori r%d, r%d, 1" reg reg

let rec compile_expr ctx r (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Int_lit v -> load_const ctx r v
  | Ast.Bool_lit b -> load_const ctx r (if b then 1 else 0)
  | Ast.Var name -> (
    match List.assoc_opt name ctx.locals with
    | Some offset -> emit ctx "lw r%d, %d(r3)" r offset
    | None -> (
      match Typecheck.const_value ctx.info name with
      | Some v -> load_const ctx r v
      | None ->
        load_const ctx 14 (global_address ctx name);
        emit ctx "lw r%d, 0(r14)" r))
  | Ast.Index (name, index) ->
    compile_expr ctx r index;
    load_const ctx 14 (global_address ctx name);
    emit ctx "add r14, r14, r%d" r;
    emit ctx "lw r%d, 0(r14)" r
  | Ast.Unop (Ast.Neg, inner) ->
    compile_expr ctx r inner;
    emit ctx "sub r%d, r0, r%d" r r
  | Ast.Unop (Ast.Bitnot, inner) ->
    compile_expr ctx r inner;
    emit ctx "xori r%d, r%d, -1" r r
  | Ast.Unop (Ast.Lognot, inner) ->
    compile_expr ctx r inner;
    emit ctx "seq r%d, r%d, r0" r r
  | Ast.Binop (Ast.Land, a, b) ->
    let false_label = fresh ctx "and_false" in
    let end_label = fresh ctx "and_end" in
    compile_expr ctx r a;
    emit ctx "beq r%d, r0, %s" r false_label;
    compile_expr ctx r b;
    normalize_bool ctx r;
    emit ctx "jal r0, %s" end_label;
    emit_label ctx false_label;
    emit ctx "addi r%d, r0, 0" r;
    emit_label ctx end_label
  | Ast.Binop (Ast.Lor, a, b) ->
    let true_label = fresh ctx "or_true" in
    let end_label = fresh ctx "or_end" in
    compile_expr ctx r a;
    emit ctx "bne r%d, r0, %s" r true_label;
    compile_expr ctx r b;
    normalize_bool ctx r;
    emit ctx "jal r0, %s" end_label;
    emit_label ctx true_label;
    emit ctx "addi r%d, r0, 1" r;
    emit_label ctx end_label
  | Ast.Binop (op, a, b) ->
    compile_binary ctx r a b (fun rd ra rb -> emit_binop ctx op rd ra rb)
  | Ast.Nondet (lo, hi) ->
    compile_binary ctx r lo hi (fun rd ra rb ->
        emit ctx "sub r12, r%d, r%d" rb ra;
        emit ctx "addi r12, r12, 1" (* range = hi - lo + 1 *);
        load_const ctx 14 Cpu.Memory_map.stimulus_port;
        emit ctx "lw r14, 0(r14)";
        emit ctx "rem r14, r14, r12";
        emit ctx "add r%d, r%d, r14" rd ra)
  | Ast.Mem_read addr ->
    compile_expr ctx r addr;
    emit ctx "lw r%d, 0(r%d)" r r
  | Ast.Call (name, args) -> compile_call ctx r name args

(* evaluate two operands at depths r/r+1, spilling when the register stack
   is exhausted, then combine them with [combine rd ra rb] *)
and compile_binary ctx r a b combine =
  if r < last_expr_reg then begin
    compile_expr ctx r a;
    compile_expr ctx (r + 1) b;
    combine r r (r + 1)
  end
  else begin
    compile_expr ctx r a;
    push ctx r;
    compile_expr ctx r b;
    pop ctx 15;
    combine r 15 r
  end

and emit_binop ctx op rd ra rb =
  match op with
  | Ast.Add -> emit ctx "add r%d, r%d, r%d" rd ra rb
  | Ast.Sub -> emit ctx "sub r%d, r%d, r%d" rd ra rb
  | Ast.Mul -> emit ctx "mul r%d, r%d, r%d" rd ra rb
  | Ast.Div -> emit ctx "div r%d, r%d, r%d" rd ra rb
  | Ast.Mod -> emit ctx "rem r%d, r%d, r%d" rd ra rb
  | Ast.Band -> emit ctx "and r%d, r%d, r%d" rd ra rb
  | Ast.Bor -> emit ctx "or r%d, r%d, r%d" rd ra rb
  | Ast.Bxor -> emit ctx "xor r%d, r%d, r%d" rd ra rb
  | Ast.Shl -> emit ctx "sll r%d, r%d, r%d" rd ra rb
  | Ast.Shr -> emit ctx "sra r%d, r%d, r%d" rd ra rb
  | Ast.Lt -> emit ctx "slt r%d, r%d, r%d" rd ra rb
  | Ast.Le -> emit ctx "sle r%d, r%d, r%d" rd ra rb
  | Ast.Gt -> emit ctx "slt r%d, r%d, r%d" rd rb ra
  | Ast.Ge -> emit ctx "sle r%d, r%d, r%d" rd rb ra
  | Ast.Eq -> emit ctx "seq r%d, r%d, r%d" rd ra rb
  | Ast.Ne ->
    emit ctx "seq r%d, r%d, r%d" rd ra rb;
    emit ctx "xori r%d, r%d, 1" rd rd
  | Ast.Land | Ast.Lor -> assert false

and compile_call ctx r name args =
  (* save the live portion of the register stack *)
  let live = ref [] in
  for reg = first_expr_reg to r - 1 do
    push ctx reg;
    live := reg :: !live
  done;
  List.iter
    (fun arg ->
      compile_expr ctx r arg;
      push ctx r)
    args;
  emit ctx "jal r1, fn_%s" name;
  if args <> [] then emit ctx "addi r2, r2, %d" (List.length args);
  List.iter (fun reg -> pop ctx reg) !live;
  emit ctx "addi r%d, r13, 0" r

(* ------------------------------------------------------------------ *)

let store_to_lvalue ctx value_reg lhs =
  match lhs with
  | Ast.Lvar name -> (
    match List.assoc_opt name ctx.locals with
    | Some offset -> emit ctx "sw r%d, %d(r3)" value_reg offset
    | None ->
      load_const ctx 14 (global_address ctx name);
      emit ctx "sw r%d, 0(r14)" value_reg)
  | Ast.Lindex (name, index) ->
    compile_expr ctx (value_reg + 1) index;
    load_const ctx 14 (global_address ctx name);
    emit ctx "add r14, r14, r%d" (value_reg + 1);
    emit ctx "sw r%d, 0(r14)" value_reg
  | Ast.Lmem addr ->
    compile_expr ctx (value_reg + 1) addr;
    emit ctx "sw r%d, 0(r%d)" value_reg (value_reg + 1)

let rec compile_stmt ctx (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Block body ->
    let saved = ctx.locals in
    List.iter (compile_stmt ctx) body;
    ctx.locals <- saved
  | Ast.Decl (name, _typ, init) ->
    let offset = -(1 + ctx.next_slot) in
    ctx.next_slot <- ctx.next_slot + 1;
    ctx.locals <- (name, offset) :: ctx.locals;
    (match init with
    | None -> ()
    | Some e ->
      compile_expr ctx first_expr_reg e;
      emit ctx "sw r%d, %d(r3)" first_expr_reg offset)
  | Ast.Expr e -> compile_expr ctx first_expr_reg e
  | Ast.Assign (lhs, e) ->
    compile_expr ctx first_expr_reg e;
    store_to_lvalue ctx first_expr_reg lhs
  | Ast.If (cond, then_s, else_s) -> (
    compile_expr ctx first_expr_reg cond;
    match else_s with
    | None ->
      let end_label = fresh ctx "if_end" in
      emit ctx "beq r%d, r0, %s" first_expr_reg end_label;
      compile_stmt ctx then_s;
      emit_label ctx end_label
    | Some else_body ->
      let else_label = fresh ctx "if_else" in
      let end_label = fresh ctx "if_end" in
      emit ctx "beq r%d, r0, %s" first_expr_reg else_label;
      compile_stmt ctx then_s;
      emit ctx "jal r0, %s" end_label;
      emit_label ctx else_label;
      compile_stmt ctx else_body;
      emit_label ctx end_label)
  | Ast.While (cond, body) ->
    let head = fresh ctx "while_head" in
    let done_label = fresh ctx "while_end" in
    emit_label ctx head;
    compile_expr ctx first_expr_reg cond;
    emit ctx "beq r%d, r0, %s" first_expr_reg done_label;
    in_loop ctx ~break_to:done_label ~continue_to:head (fun () ->
        compile_stmt ctx body);
    emit ctx "jal r0, %s" head;
    emit_label ctx done_label
  | Ast.Do_while (body, cond) ->
    let head = fresh ctx "do_head" in
    let check = fresh ctx "do_check" in
    let done_label = fresh ctx "do_end" in
    emit_label ctx head;
    in_loop ctx ~break_to:done_label ~continue_to:check (fun () ->
        compile_stmt ctx body);
    emit_label ctx check;
    compile_expr ctx first_expr_reg cond;
    emit ctx "bne r%d, r0, %s" first_expr_reg head;
    emit_label ctx done_label
  | Ast.For (init, cond, step, body) ->
    let saved = ctx.locals in
    Option.iter (compile_stmt ctx) init;
    let head = fresh ctx "for_head" in
    let step_label = fresh ctx "for_step" in
    let done_label = fresh ctx "for_end" in
    emit_label ctx head;
    (match cond with
    | None -> ()
    | Some e ->
      compile_expr ctx first_expr_reg e;
      emit ctx "beq r%d, r0, %s" first_expr_reg done_label);
    in_loop ctx ~break_to:done_label ~continue_to:step_label (fun () ->
        compile_stmt ctx body);
    emit_label ctx step_label;
    Option.iter (compile_stmt ctx) step;
    emit ctx "jal r0, %s" head;
    emit_label ctx done_label;
    ctx.locals <- saved
  | Ast.Switch (scrutinee, cases) ->
    compile_expr ctx first_expr_reg scrutinee;
    let end_label = fresh ctx "switch_end" in
    let labelled =
      List.map (fun case -> (fresh ctx "case", case)) cases
    in
    let default_target = ref end_label in
    List.iter
      (fun (label, case) ->
        List.iter
          (function
            | Ast.Case value ->
              load_const ctx (first_expr_reg + 1) value;
              emit ctx "beq r%d, r%d, %s" first_expr_reg (first_expr_reg + 1)
                label
            | Ast.Default -> default_target := label)
          case.Ast.labels)
      labelled;
    emit ctx "jal r0, %s" !default_target;
    ctx.break_labels <- end_label :: ctx.break_labels;
    let saved = ctx.locals in
    List.iter
      (fun (label, case) ->
        emit_label ctx label;
        List.iter (compile_stmt ctx) case.Ast.body)
      labelled;
    ctx.locals <- saved;
    ctx.break_labels <- List.tl ctx.break_labels;
    emit_label ctx end_label
  | Ast.Break -> (
    match ctx.break_labels with
    | label :: _ -> emit ctx "jal r0, %s" label
    | [] -> raise (Codegen_error "break outside loop/switch"))
  | Ast.Continue -> (
    match ctx.continue_labels with
    | label :: _ -> emit ctx "jal r0, %s" label
    | [] -> raise (Codegen_error "continue outside loop"))
  | Ast.Return value -> (
    (match value with
    | Some e ->
      compile_expr ctx first_expr_reg e;
      emit ctx "addi r13, r%d, 0" first_expr_reg
    | None -> emit ctx "addi r13, r0, 0");
    emit ctx "jal r0, %s" ctx.return_label)
  | Ast.Assert cond ->
    let ok = fresh ctx "assert_ok" in
    compile_expr ctx first_expr_reg cond;
    emit ctx "bne r%d, r0, %s" first_expr_reg ok;
    emit ctx "trap %d" Isa.trap_assert;
    emit_label ctx ok
  | Ast.Assume cond ->
    let ok = fresh ctx "assume_ok" in
    compile_expr ctx first_expr_reg cond;
    emit ctx "bne r%d, r0, %s" first_expr_reg ok;
    emit ctx "trap %d" Isa.trap_assume;
    emit_label ctx ok
  | Ast.Halt -> emit ctx "halt"

and in_loop ctx ~break_to ~continue_to body =
  ctx.break_labels <- break_to :: ctx.break_labels;
  ctx.continue_labels <- continue_to :: ctx.continue_labels;
  body ();
  ctx.break_labels <- List.tl ctx.break_labels;
  ctx.continue_labels <- List.tl ctx.continue_labels

(* ------------------------------------------------------------------ *)

let count_decls stmts =
  let count = ref 0 in
  let visit s =
    match s.Ast.sdesc with Ast.Decl _ -> incr count | _ -> ()
  in
  List.iter (Ast.iter_stmt visit) stmts;
  !count

let compile_function ctx (f : Ast.func) =
  let nparams = List.length f.Ast.f_params in
  ctx.locals <-
    List.mapi
      (fun i (name, _typ) -> (name, 2 + (nparams - 1 - i)))
      f.Ast.f_params;
  ctx.next_slot <- 0;
  ctx.return_label <- Printf.sprintf "fn_%s_ret" f.Ast.f_name;
  let nslots = count_decls f.Ast.f_body in
  emit_label ctx (Printf.sprintf "fn_%s" f.Ast.f_name);
  emit ctx "addi r2, r2, -2";
  emit ctx "sw r1, 1(r2)";
  emit ctx "sw r3, 0(r2)";
  emit ctx "addi r3, r2, 0";
  if nslots > 0 then emit ctx "addi r2, r2, -%d" nslots;
  if ctx.fname_tracking then begin
    load_const ctx 12 (Typecheck.func_id ctx.info f.Ast.f_name);
    load_const ctx 14 (Symtab.fname_address ctx.symtab);
    emit ctx "sw r12, 0(r14)"
  end;
  List.iter (compile_stmt ctx) f.Ast.f_body;
  emit ctx "addi r13, r0, 0" (* falling off the end returns 0 *);
  emit_label ctx ctx.return_label;
  emit ctx "addi r2, r3, 0";
  emit ctx "lw r3, 0(r2)";
  emit ctx "lw r1, 1(r2)";
  emit ctx "addi r2, r2, 2";
  emit ctx "jalr r0, r1, 0"

let compile ?(fname_tracking = true) info =
  let prog = Typecheck.program info in
  if Ast.find_func prog "main" = None then
    raise (Codegen_error "program has no main function");
  let symtab = Symtab.build info in
  let ctx =
    {
      buf = Buffer.create 4096;
      info;
      symtab;
      fname_tracking;
      label_counter = 0;
      locals = [];
      next_slot = 0;
      break_labels = [];
      continue_labels = [];
      return_label = "";
    }
  in
  (* entry stub: set up the stack, run global initializers, call main *)
  load_const ctx Isa.reg_sp Cpu.Memory_map.stack_top;
  List.iter
    (fun (g : Ast.global) ->
      if not g.Ast.g_const then
        match g.Ast.g_init with
        | None -> ()
        | Some e ->
          compile_expr ctx first_expr_reg e;
          load_const ctx 14 (global_address ctx g.Ast.g_name);
          emit ctx "sw r%d, 0(r14)" first_expr_reg)
    prog.Ast.globals;
  emit ctx "jal r1, fn_main";
  emit ctx "halt";
  List.iter (fun f -> compile_function ctx f) prog.Ast.funcs;
  let asm_source = Buffer.contents ctx.buf in
  let instructions = Asm.assemble asm_source in
  let words = List.map Encode.encode instructions in
  { asm_source; instructions; words; symtab }
