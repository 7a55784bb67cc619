(** And-inverter graph: the circuit representation the bounded model
    checker bit-blasts programs into before CNF conversion.

    Literals are integers: [2*node + sign]; node 0 is the constant, so
    {!false_} = 0 and {!true_} = 1. AND nodes are hash-consed with local
    simplification (constant absorption, idempotence, complement). *)

type t
type lit = int

val create : unit -> t

val false_ : lit
val true_ : lit

val fresh_input : t -> string -> lit
(** A free boolean input (one bit of a nondeterministic value). *)

val input_name : t -> lit -> string option

val neg : lit -> lit
val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val implies : t -> lit -> lit -> lit
val iff : t -> lit -> lit -> lit
val mux : t -> lit -> lit -> lit -> lit
(** [mux g sel a b] is [a] when [sel] else [b]. *)

val conj : t -> lit list -> lit
val disj : t -> lit list -> lit

val num_nodes : t -> int

(** {2 CNF conversion (Tseitin)} *)

type cnf = {
  num_vars : int;
  clauses : int array list;  (** DIMACS-style: +v / -v, 1-based *)
}

val to_cnf : t -> roots:lit list -> cnf * (lit -> int)
(** Encode the cone of influence of [roots]; the returned function maps an
    AIG literal to its signed DIMACS literal. Clauses asserting the roots
    are NOT added — combine with {!assert_lit}. *)

val assert_lit : (lit -> int) -> lit -> int array
(** Unit clause forcing an AIG literal true. *)

val eval : t -> assignment:(lit -> bool) -> lit -> bool
(** Evaluate a literal given values for the inputs (for counterexample
    replay and tests). [assignment] is consulted for input literals in
    positive phase. *)
