(** Explicit Accept/Reject automata.

    SCTC's synthesis engine translates a property into an AR-automaton that
    is executed during system monitoring (Ruf et al., DATE 2001). States are
    obligations (formulas); the automaton reads one proposition assignment
    per trigger and moves to the progressed obligation. [Accept] and
    [Reject] states are absorbing and correspond to validation/violation on
    the finite trace; everything else is pending.

    Explicit synthesis enumerates all reachable obligations up front, which
    for a bounded operator [F[b]] creates O(b) count-down states — the
    source of the large AR-automaton generation times the paper reports for
    time bound 100000. The on-the-fly alternative is {!Progression}. *)

type state_kind = Accept | Reject | Pend

type t

exception Too_large of int
(** Raised by {!synthesize} when the state count exceeds [max_states]. *)

val max_props : int
(** The most propositions a formula may have for synthesis (16): each
    state has a successor for every one of the [2^n] assignments. *)

(** [synthesize ?max_states formula] builds the explicit automaton
    (default [max_states] 200000).
    @raise Invalid_argument when the formula has more than {!max_props}
    propositions. *)
val synthesize : ?max_states:int -> Formula.t -> t

(** [synthesize_memo ?max_states formula] is {!synthesize} through a
    per-domain memo cache keyed by the formula's hash-cons id and the
    bound: N campaign jobs over the same property on the same worker
    domain derive the automaton once, without any cross-domain locking.
    Returns [(automaton, fresh)]; [fresh] is [false] on a cache hit, so
    callers accounting synthesis time do not double-count
    {!build_seconds}. A failure is cached under the same key: a repeated
    over-cap call re-raises [Too_large] as a hit, without exploring
    again. *)
val synthesize_memo : ?max_states:int -> Formula.t -> t * bool

type cache_stats = { cache_hits : int; cache_misses : int }

val cache_stats : unit -> cache_stats
(** Cumulative {!synthesize_memo} hit/miss counts summed over every
    domain that ever synthesized. *)

val formula : t -> Formula.t
val props : t -> string array
(** Proposition order defining assignment bitmasks: bit [i] = value of
    [props.(i)]. *)

val num_states : t -> int
val num_props : t -> int
val initial : t -> int
val kind : t -> int -> state_kind
val next : t -> int -> int -> int
(** [next a state mask] is the successor under assignment [mask]. *)

val state_formula : t -> int -> Formula.t
(** The obligation a state denotes. *)

val build_seconds : t -> float
(** Wall-clock time spent in synthesis (the paper's "AR-automaton
    generation time" component of verification time). *)

val mask_of_valuation : t -> (string -> bool) -> int

val stats : t -> string
(** Human-readable summary: states, propositions, build time. *)
