(** Accept/Reject automata, determinized lazily.

    SCTC translates a property into an AR-automaton that is executed
    during system monitoring (Ruf et al., DATE 2001). States are
    obligations (formulas); the automaton reads one proposition
    assignment per trigger and moves to the progressed obligation.
    [Accept] and [Reject] states are absorbing and correspond to
    validation/violation on the finite trace; everything else is pending.

    A table holds the part of the automaton computed so far. State ids
    are assigned on first visit (the root is state 0). A row is indexed by
    the assignment mask over the root's sorted support ({!props}): a dense
    array up to 12 propositions, a hash table above. An unfilled entry is
    computed once, by {!Progression.step}, the first time {!next} reads
    it. Every monitor steps such a table:

    - {!shared} is the calling domain's table for a root property, so the
      monitors of all checkers on one domain share what any of them has
      computed, and a property re-registered by many short campaign jobs
      is determinized once per domain;
    - {!explore} fills every reachable entry, which is explicit synthesis;
      {!synthesize} is a fresh table explored to that fixpoint.

    Exploring up front enumerates all reachable obligations, which for a
    bounded operator [F[b]] creates O(b) count-down states: the source of
    the large AR-automaton generation times the paper reports for time
    bound 100000.

    A table may only be filled on the domain that created it; filling it
    from another raises [Invalid_argument]. Reading filled entries, and
    so any use of a complete table, is allowed from every domain. *)

type state_kind = Accept | Reject | Pend

type t

exception Too_large of int
(** Raised by {!explore} when the state count exceeds [max_states]; the
    argument is the count reached. A printer registered with [Printexc]
    renders it as [property too large: synthesis stopped at N
    AR-automaton states]. *)

val max_props : int
(** The most propositions {!explore} takes (16): it fills [2^n] entries
    per state. *)

val shared : Formula.t -> t
(** The calling domain's table for [formula], created with only the root
    state on first use.
    @raise Invalid_argument when the support has more than
    [Sys.int_size] propositions (a mask is one [int]). *)

val explore : ?max_states:int -> t -> unit
(** Fill every entry reachable from the root (default [max_states]
    200000). A no-op once an earlier call has reached that fixpoint, so
    no later {!next} fills an entry. The time spent is added to
    {!build_seconds}, also when exploration stops with [Too_large]; the
    entries filled up to then stay filled.
    @raise Invalid_argument when the formula has more than {!max_props}
    propositions. *)

val synthesize : ?max_states:int -> Formula.t -> t
(** A fresh table, not shared with any monitor, explored to its fixpoint:
    the explicit automaton [tcheck automaton] prints. State ids follow
    breadth-first order from the root. *)

val next : t -> int -> int -> int
(** [next a state mask] is the successor under assignment [mask],
    computed and stored first if the entry is unfilled.
    @raise Invalid_argument if the entry is unfilled and the calling
    domain did not create [a]. *)

val fills : unit -> int
(** Entries the calling domain has filled so far, over all its tables. *)

val formula : t -> Formula.t

val props : t -> string array
(** Proposition order defining assignment masks: bit [i] = value of
    [props.(i)]. *)

val num_states : t -> int
(** States discovered so far; all reachable ones once explored. *)

val num_props : t -> int
val initial : t -> int
val kind : t -> int -> state_kind

val state_formula : t -> int -> Formula.t
(** The obligation a state denotes. *)

val build_seconds : t -> float
(** Wall-clock time spent in {!explore} (the paper's "AR-automaton
    generation time" component of verification time). Entries filled on
    demand by {!next} are not timed. *)

val mask_of_valuation : t -> (string -> bool) -> int

val stats : t -> string
(** Human-readable summary: states, propositions, build time. *)
