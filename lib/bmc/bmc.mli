(** The bounded model checker (CBMC analog).

    Pipeline: symbolic execution with function inlining and loop unwinding
    ({!Symexec}) → bit-blasting ({!Bitvec} over {!Aig}) → Tseitin CNF →
    CDCL SAT ({!Sat}). Like CBMC, it is bit-precise, finds real
    counterexamples, and — due to the boundedness — proves correctness
    only up to the unwinding bound. *)

type counterexample = {
  violated : string;  (** which verification condition *)
  position : Minic.Ast.position;
  input_values : (string * int) list;  (** nondet choices, oldest first *)
}

type verdict =
  | Safe of { complete : bool }
      (** no violation within the bound; [complete] when nothing was cut *)
  | Unsafe of counterexample
  | Out_of_time  (** encode or solve exceeded the budget *)
  | Gave_up of string  (** circuit too large / unsupported construct *)

type report = {
  result : verdict;
  unwind : int;
  seconds : float;
  encode_seconds : float;
  circuit_nodes : int;
  cnf_vars : int;
  cnf_clauses : int;
  sat_stats : Sat.stats option;
}

val check :
  ?unwind:int ->
  ?timeout_seconds:float ->
  ?entry:string ->
  Minic.Typecheck.info ->
  report
(** Check every assertion (plus division and array-bounds conditions)
    of the program, starting at [entry] (default ["main"]). A program
    without that function gives up with ["no entry function ENTRY"]. *)
