(** Executable property monitors.

    A monitor binds a property to the system under verification through a
    name-resolution function (typically {!Proposition.Table.binding}) and is
    stepped once per trigger — a clock edge in the paper's approach 1, a
    program-counter event in approach 2. Each step samples every supporting
    proposition exactly once (so stateful propositions advance uniformly)
    and advances the AR-automaton.

    Two engines are provided: the explicit pre-synthesized AR-automaton
    ([of_automaton]/[of_il]) and on-the-fly formula progression
    ([of_formula]); they compute identical verdicts. All engines step
    from a mask-indexed view of the sampled support: the explicit
    engines index their transition tables directly, and the on-the-fly
    engine memoizes progression through {!Transition_cache}, lazily
    determinizing the formula into its AR-automaton. A monitor must be
    stepped on the domain that created it (the transition cache is
    domain-local). *)

type t

val of_formula :
  name:string -> Formula.t -> binding:(string -> unit -> bool) -> t
(** On-the-fly engine. *)

val of_automaton :
  name:string -> Ar_automaton.t -> binding:(string -> unit -> bool) -> t
(** Explicit engine. *)

val of_il : name:string -> Il.t -> binding:(string -> unit -> bool) -> t
(** Explicit engine driven by an IL description, stepped through the
    compiled {!Il.Table} guard tables (the guard-list scan {!Il.next} is
    kept only as the reference semantics). *)

val name : t -> string

val step : t -> Verdict.t
(** Sample propositions, advance, and return the verdict after this step.
    Once the verdict is final ({!Verdict.is_final}), further steps are
    no-ops. *)

val step_indexed : t -> samples:bool array -> map:int array -> Verdict.t
(** [step_indexed monitor ~samples ~map] advances from an externally
    sampled vector instead of the monitor's own samplers: support slot
    [i] reads [samples.(map.(i))]. This is the checker's compiled
    trigger-plan path — each proposition is probed exactly once per
    trigger at the checker level and shared across monitors. [map] must
    have one entry per {!support} slot. Final verdicts short-circuit as
    in {!step}. *)

val support : t -> string array
(** The monitored support in slot order (a copy): the proposition names
    whose sampled values [step_indexed] expects, in the order the [map]
    argument indexes them. *)

val verdict : t -> Verdict.t
val steps : t -> int

val finalize : ?strong:bool -> t -> Verdict.t
(** End-of-trace verdict, see {!Progression.finalize}. For explicit engines
    built from IL the obligation formula is unavailable, so a pending IL
    monitor finalizes to [Pending] regardless of [strong]. *)

val reset : t -> unit
(** Return to the initial state and step count 0. *)
