(** Symbolic execution of MiniC into a bit-vector circuit — the CBMC
    front end: functions are inlined, loops unwound up to a bound, the
    program becomes a single guarded-assignment formula over the AIG.

    Every [assert] produces a verification condition (guard ∧ ¬condition);
    division sites produce divisor-non-zero conditions and array indexings
    produce bounds conditions. [nondet(lo, hi)] introduces a constrained
    32-bit input. Loops that may iterate beyond the unwinding bound make
    the result {e incomplete} (CBMC's unwinding assertion would fail):
    a SAFE answer then only covers executions within the bound.

    Memory intrinsics ([*(addr)], [mem_write]) are modelled as a small
    symbolic RAM (mux-chained over the write history), sound for programs
    whose address expressions stay within the encoded story. *)

type condition = {
  vc_name : string;  (** e.g. "assert at 12:3", "division by zero at ..." *)
  vc_pos : Minic.Ast.position;
  vc_lit : Aig.lit;  (** satisfiable = violable *)
}

type encoded = {
  graph : Aig.t;
  conditions : condition list;
  assumptions : Aig.lit;  (** conjunction of assumes and input ranges *)
  inputs : (string * Bitvec.t) list;  (** nondet values, newest first *)
  complete : bool;  (** false when some loop/recursion hit its bound *)
  statements_encoded : int;
}

exception Unsupported of string * Minic.Ast.position

exception Too_large of int
(** Raised when the circuit exceeds [max_nodes]. *)

exception Deadline_reached
(** Raised when encoding runs past [deadline] (absolute
    [Unix.gettimeofday] time) — the "stuck unwinding loops" failure mode
    of the paper's CBMC runs. *)

val encode :
  ?unwind:int ->
  ?recursion_limit:int ->
  ?max_nodes:int ->
  ?deadline:float ->
  Minic.Typecheck.info ->
  entry:string ->
  encoded
(** [unwind] defaults to 20 (the limit used in the paper's CBMC
    experiments); [max_nodes] bounds circuit size (default 20 million).
    [entry] must name a function of the program ({!Bmc.check} checks it). *)
