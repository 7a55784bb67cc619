(** Executable property monitors.

    A monitor is stepped once per trigger — a clock edge in the paper's
    approach 1, a program-counter event in approach 2 — from a sample
    vector its caller probed ({!step_indexed}): the checker samples every
    proposition exactly once per trigger (so stateful propositions
    advance uniformly) and shares that vector across its monitors.

    Two engines are provided: the explicit pre-synthesized AR-automaton
    ([of_automaton]) and on-the-fly formula progression ([of_formula]);
    they compute identical verdicts, per step and at {!finalize}. Both
    step from a mask-indexed view of the sampled support: the explicit
    engine indexes the automaton's dense transition array directly, and
    the on-the-fly engine memoizes progression through
    {!Transition_cache}, lazily determinizing the formula into its
    AR-automaton. A monitor must be stepped on the domain that created
    it (the transition cache is domain-local). *)

type t

val of_formula : name:string -> Formula.t -> t
(** On-the-fly engine. *)

val of_automaton : name:string -> Ar_automaton.t -> t
(** Explicit engine. *)

val name : t -> string

val step_indexed : t -> samples:bool array -> map:int array -> Verdict.t
(** [step_indexed monitor ~samples ~map] advances by one trigger and
    returns the verdict after it: support slot [i] reads
    [samples.(map.(i))]. This is the checker's compiled trigger-plan
    path — each proposition is probed exactly once per trigger at the
    checker level and shared across monitors. [map] must have one entry
    per {!support} slot. Once the verdict is final
    ({!Verdict.is_final}), further steps leave it unchanged and only
    advance {!steps}. *)

val support : t -> string array
(** The monitored support in slot order (a copy): the proposition names
    whose sampled values [step_indexed] expects, in the order the [map]
    argument indexes them. *)

val verdict : t -> Verdict.t
val steps : t -> int

val finalize : ?strong:bool -> t -> Verdict.t
(** End-of-trace verdict of the current obligation, see
    {!Progression.finalize}. *)

val reset : t -> unit
(** Return to the initial state and step count 0. *)
