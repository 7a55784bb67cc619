(** Predicate abstraction with counterexample-guided refinement — the
    BLAST-analog checker (abstract–check–refine, Henzinger et al.).

    The abstract domain is a conjunction of tracked predicate literals per
    CFG location; abstract reachability explores the ART with coverage;
    abstract error paths are replayed concretely (path formula fed to
    Fourier–Motzkin); infeasible paths contribute new predicates from the
    weakest-precondition chain; feasible paths are reported as bugs.

    Like the BLAST runs in the paper, analysis of large state-driven
    programs can exhaust its resources — that outcome is reported as
    [Aborted] (the paper's "abort exceptions"). *)

type result =
  | Safe  (** no assertion violation reachable (sound over-approximation) *)
  | Bug of { path_length : int; position : Minic.Ast.position }
  | Aborted of string  (** resource exhaustion: predicates/nodes/time *)
  | Unknown of string  (** refinement cannot make progress *)

type report = {
  result : result;
  iterations : int;  (** CEGAR refinement rounds *)
  predicates : int;  (** tracked predicates at the end *)
  art_nodes : int;  (** abstract states explored (last round) *)
  seconds : float;
}

val check :
  ?max_predicates:int ->
  ?max_art_nodes:int ->
  ?max_iterations:int ->
  ?timeout_seconds:float ->
  ?entry:string ->
  Minic.Typecheck.info ->
  report
(** Checks all assertions of the program (normalized internally).
    No caller sets [max_iterations]; it stays for the run-ending
    budget of ROADMAP.md ("Every run says how it ended"). *)
