(** CDCL SAT solver (the back end of the bounded model checker).

    Conflict-driven clause learning with two-watched-literal propagation,
    VSIDS decision heuristics, first-UIP conflict analysis with
    backjumping, and Luby restarts — the architecture of the solvers CBMC
    used in the paper's era. Inputs are DIMACS-style clauses (non-zero
    signed literals, variables 1-based). *)

type result =
  | Sat of bool array  (** model, indexed by variable (index 0 unused) *)
  | Unsat
  | Timeout

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

val solve :
  ?timeout_seconds:float ->
  ?max_conflicts:int ->
  num_vars:int ->
  int array list ->
  result * stats
(** An empty clause (or contradictory units) yields [Unsat]. Literals must
    satisfy [1 <= abs lit <= num_vars]. No caller sets [max_conflicts];
    it stays for the run-ending budget of ROADMAP.md ("Every run says
    how it ended"). *)
