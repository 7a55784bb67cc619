(** Memoized formula progression — the lazily built AR-automaton.

    Explicit synthesis ({!Ar_automaton.synthesize}) pays the full
    determinization cost up front; plain {!Progression.step} pays an
    interpretation cost on every trigger. This module is the middle
    point the runtime-verification literature recommends: progression
    results are cached per [(formula, support valuation)] pair, so the
    reachable fragment of the AR-automaton is determinized lazily, one
    transition the first time it is taken — steady-state triggers are
    one array (or hash) lookup plus an id compare.

    Formulas are hash-consed ({!Formula.hash} is the globally unique
    id), so a residual obligation reached from two different properties
    shares one cache node. The transition key is the valuation of the
    node's {e own} sorted support ({!props}), which makes the key
    canonical across monitors whose supports differ.

    The cache is per-domain ([Domain.DLS], mirroring
    {!Ar_automaton.synthesize_memo}): lookups take no lock, and a node
    must only be stepped on the domain that created it. Only the
    two-word stats cells outlive a worker domain. *)

type node
(** An interned formula plus its (lazily filled) outgoing transitions. *)

val node : Formula.t -> node
(** Intern [formula] in the calling domain's cache (idempotent). *)

val formula : node -> Formula.t
val props : node -> string array
(** The node's support, sorted — bit [i] of a transition mask is the
    sampled value of [props.(i)]. *)

val step : node -> int -> Formula.t
(** [step node mask] is the successor obligation under the valuation
    encoded by [mask]; memoized after the first computation. Nodes with
    more than 12 propositions fall back from the dense successor array
    to a per-node hash table, and nodes over 16 recompute every step
    (counted as misses). *)

val step_node : node -> int -> node
(** [step node mask], interned — the common monitor transition. *)

(** {2 Statistics}

    [Formula.cons_stats]-style process-wide counters, summed over every
    domain that ever stepped a node; exported through [lib/obs] by the
    checker as [sctc_progression_cache_{hits,misses}_total]. *)

type stats = { hits : int; misses : int; nodes : int }

val stats : unit -> stats
(** Aggregated over all domains (takes the registry mutex). *)

val local_stats : unit -> int * int
(** [(hits, misses)] of the calling domain only — lock-free, cheap
    enough for per-trigger deltas on the metered checker path. *)
