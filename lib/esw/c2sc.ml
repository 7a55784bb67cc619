module Ast = Minic.Ast

type derived = {
  model_program : Ast.program;
  model_info : Minic.Typecheck.info;
  member_vars : (string * Ast.typ) list;
  member_funcs : string list;
  converted_accesses : int;
}

(* count direct memory access sites (the ones bound to the VM) *)
let count_mem_accesses program =
  let count = ref 0 in
  let rec expr (e : Ast.expr) =
    match e.edesc with
    | Ast.Mem_read inner ->
      incr count;
      expr inner
    | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Var _ -> ()
    | Ast.Index (_, inner) | Ast.Unop (_, inner) -> expr inner
    | Ast.Binop (_, a, b) | Ast.Nondet (a, b) ->
      expr a;
      expr b
    | Ast.Call (_, args) -> List.iter expr args
  in
  let lvalue = function
    | Ast.Lvar _ -> ()
    | Ast.Lindex (_, e) -> expr e
    | Ast.Lmem e ->
      incr count;
      expr e
  in
  let stmt (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Expr e | Ast.Assert e | Ast.Assume e -> expr e
    | Ast.Assign (lhs, e) ->
      lvalue lhs;
      expr e
    | Ast.Decl (_, _, init) -> Option.iter expr init
    | Ast.If (cond, _, _) | Ast.While (cond, _) | Ast.Do_while (_, cond)
    | Ast.Switch (cond, _) ->
      expr cond
    | Ast.For (_, cond, _, _) -> Option.iter expr cond
    | Ast.Block _ | Ast.Break | Ast.Continue | Ast.Halt -> ()
    | Ast.Return value -> Option.iter expr value
  in
  Ast.iter_stmts_program stmt program;
  !count

let derive info =
  let program = Minic.Typecheck.program info in
  (* ensure the fname tracking member exists *)
  let has_fname = Ast.find_global program "fname" <> None in
  let globals =
    if has_fname then program.Ast.globals
    else
      program.Ast.globals
      @ [
          {
            Ast.g_name = "fname";
            g_type = Ast.Tint;
            g_const = false;
            g_init = None;
            g_pos = Ast.dummy_pos;
          };
        ]
  in
  (* insert "fname = FUNCTION_NAME;" at every function entry *)
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        let id = Minic.Typecheck.func_id info f.f_name in
        let track =
          Ast.stmt (Ast.Assign (Ast.Lvar "fname", Ast.int_lit id))
        in
        { f with Ast.f_body = track :: f.f_body })
      program.Ast.funcs
  in
  let model_program = { Ast.globals; funcs } in
  let model_info = Minic.Typecheck.check model_program in
  {
    model_program;
    model_info;
    member_vars =
      List.filter_map
        (fun (g : Ast.global) ->
          if g.g_const then None else Some (g.g_name, g.g_type))
        globals;
    member_funcs = List.map (fun (f : Ast.func) -> f.Ast.f_name) funcs;
    converted_accesses = count_mem_accesses program;
  }

let typ_cpp = function
  | Ast.Tint -> "sc_int<32>"
  | Ast.Tbool -> "bool"
  | Ast.Tvoid -> "void"
  | Ast.Tarray n -> Printf.sprintf "sc_int<32> /* [%d] */" n

(* the module class every derived model renders as *)
let class_name = "ESW_SC"

let to_systemc derived =
  let buffer = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "SC_MODULE(%s) {" class_name;
  line "  sc_event esw_pc_event;           // notified after every statement";
  line "  VirtualMemModel vmem;            // direct memory accesses go here";
  line "";
  List.iter
    (fun (name, typ) ->
      match typ with
      | Ast.Tarray n -> line "  sc_int<32> %s[%d];" name n
      | typ -> line "  %s %s;" (typ_cpp typ) name)
    derived.member_vars;
  line "";
  List.iter
    (fun func ->
      if String.equal func "main" then
        line "  void %s();                     // SC_THREAD" func
      else line "  void %s();" func)
    derived.member_funcs;
  line "";
  line "  SC_CTOR(%s) : vmem(\"vmem\") {" class_name;
  line "    SC_THREAD(main);";
  line "  }";
  line "};";
  Buffer.contents buffer
