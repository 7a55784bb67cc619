(** Executable property monitors.

    A monitor is stepped once per trigger — a clock edge in the paper's
    approach 1, a program-counter event in approach 2 — from a sample
    vector its caller probed ({!step_indexed}): the checker samples every
    proposition exactly once per trigger (so stateful propositions
    advance uniformly) and shares that vector across its monitors.

    A monitor is a current state in an {!Ar_automaton} table plus a step
    count. A step builds the assignment mask over the root's support and
    follows the table's entry for it, which is an array lookup once the
    entry is filled. Several monitors may share one table; each keeps its
    own state. A step that needs an unfilled entry fills it, which only
    the domain that created the table may do ({!Ar_automaton.next}), so
    a monitor over a table that is not fully explored must be stepped on
    that domain. *)

type t

val of_automaton : name:string -> Ar_automaton.t -> t

val of_formula : name:string -> Formula.t -> t
(** [of_automaton] over the calling domain's table for the formula
    ({!Ar_automaton.shared}). *)

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
