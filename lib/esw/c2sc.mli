(** The C2SystemC translator (paper Fig. 5, approach 2).

    Derives a SystemC software model from the original C program:

    - one module class ([ESW_SC]) per program; global variables become
      class members, functions become member functions (lines 7–10);
    - the [esw_pc_event] program-counter event is the timing reference,
      notified after every statement (lines 3, 13–15) — realized by the
      {!Esw_model} executor;
    - direct memory accesses are redirected to the virtual memory model
      (lines 4–6) — realized by binding the model's memory operations to
      {!Vmem} (the count of converted access sites is reported);
    - an [fname = FUNCTION_NAME] assignment is inserted at every function
      entry (lines 11–12) so function sequencing is observable in
      properties.

    The derived model is exactly as precise as the original C program: the
    transformation only adds the [fname] updates, which write a fresh
    tracking variable.

    [to_systemc] renders the derived class as SystemC-flavoured C++ text —
    the artifact the paper's translator would emit — used for
    documentation and golden tests. *)

type derived = {
  model_program : Minic.Ast.program;  (** fname-instrumented program *)
  model_info : Minic.Typecheck.info;  (** re-checked *)
  member_vars : (string * Minic.Ast.typ) list;
  member_funcs : string list;
  converted_accesses : int;  (** direct memory access sites mapped to VM *)
}

val derive : Minic.Typecheck.info -> derived

val to_systemc : derived -> string
