(** Two-level minimization of transition guards.

    An AR-automaton edge is labelled by the set of proposition assignments
    (minterms over [n] propositions) that take the source state to one
    successor. For the IL representation these sets are compressed into
    cubes, where each position is [Zero], [One], or [Dash] (don't care). *)

type literal = Zero | One | Dash

type t = literal array
(** One cube over [n] proposition positions. *)

val matches : t -> int -> bool
(** Does an assignment bitmask satisfy the cube? *)

val minterms : t -> int list
(** All assignment masks covered by the cube. *)

val minimize : width:int -> int list -> t list
(** [minimize ~width masks] returns cubes covering exactly the given set of
    minterms (iterated adjacent-pair merging, Quine–McCluskey style prime
    generation with greedy cover). The result covers each input mask and no
    other. *)

val to_string : t -> string
(** E.g. ["1-0"]: proposition 0 true, proposition 1 don't care, 2 false.
    Position 0 is leftmost. *)

val of_string : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on other characters. *)
