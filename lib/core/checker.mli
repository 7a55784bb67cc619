(** The SystemC Temporal Checker (SCTC) core.

    A checker owns a proposition table (the probes into the system under
    verification), a set of temporal properties, and one executable monitor
    per property. Each call to {!step} is one trigger of the checker — the
    paper triggers it on the microprocessor clock (approach 1) or on the
    program-counter event of the derived software model (approach 2).

    The trigger hot path runs over a {e compiled trigger plan}, rebuilt
    lazily whenever the property set, the trace bus or a monitor's
    finality changes: every proposition in the pending properties'
    support is probed exactly once per trigger into a shared sample
    vector (in sorted name order, each probe published as one
    [Trace.Sample] event), monitors read that vector through precomputed
    integer slot maps ({!Monitor.step_indexed}), and monitors whose
    verdict is final — and published — are skipped entirely. Every
    monitor steps the calling domain's AR-automaton table for its
    property ([Ar_automaton.shared]), so once the entries a run needs are
    filled a trigger costs one table lookup per pending property, and a
    property registered again by a later checker on the same domain
    starts from what the earlier ones filled.

    Properties can be given as {!Formula.t} values or as PSL / FLTL text;
    the engine ({!Engine.t}) is selectable per property: [Otf] fills the
    table on demand, [Explicit] explores it to its fixpoint at
    registration (the paper's compiled monitor, whose IL text [Il]
    prints). *)

type t

type engine = Engine.t = Otf | Explicit
(** Re-export of {!Engine.t} — the one engine enum shared by every front
    end; see {!Engine} for the semantics of each constructor and the
    string/CLI conversions. *)

val create :
  ?trace:Trace.t -> ?metrics:Obs.Registry.t -> name:string -> unit -> t
(** [trace] defaults to {!Trace.null} (no events published); [metrics]
    defaults to {!Obs.Registry.null} (no-op handles, one boolean test on
    the hot path). With a live registry the checker records
    [sctc_triggers_total], [sctc_verdict_transitions_total],
    [sctc_automaton_fills_total] (AR-automaton table entries the triggers
    computed), per-trigger latency under the [check] stage timer, and
    charges property parsing and explicit exploration to the [parse] /
    [synthesize] stage timers. *)

val name : t -> string

(** {2 Tracing} *)

val trace : t -> Trace.t
val set_trace : t -> Trace.t -> unit

val set_time_source : t -> (unit -> int) -> unit
(** Install the clock used to stamp {!first_final_at} (and, for
    convenience, available to sessions for their trace bus). Defaults to
    the checker's own trigger count. *)

(** {2 Propositions} *)

val register_proposition : t -> Proposition.t -> unit
(** @raise Invalid_argument on duplicate proposition names. *)

val register_sampler : t -> string -> (unit -> bool) -> unit
(** Convenience: register a stateless proposition from a sampler. *)

val proposition_names : t -> string list

(** {2 Properties} *)

val add_property : ?engine:engine -> t -> name:string -> Formula.t -> unit
(** [engine] defaults to {!Engine.default} ([Otf]). Under [Explicit] the
    table is explored at registration, capped at 200000 states
    ({!Ar_automaton.explore}); the time that exploration took is added
    to {!synthesis_seconds}, also when it stops with [Too_large], and
    nothing is added when an earlier registration on this domain already
    completed the table.
    @raise Invalid_argument if a proposition in the formula's support is
    not registered, if the property name is already used, if the support
    has more than [Sys.int_size] propositions, or if [Explicit] is asked
    to explore over more than 16 propositions.
    @raise Ar_automaton.Too_large if [Explicit] exploration exceeds
    200000 states. *)

val add_property_text :
  ?engine:engine ->
  ?syntax:Prop.syntax ->
  t ->
  name:string ->
  string ->
  unit
(** Parse via {!Prop.parse_exn} and add. [syntax] defaults to [`Auto],
    as there; every text FLTL accepts holds no PSL-only keyword, so
    [`Auto] reads it as FLTL.
    @raise Loc.Error on malformed property text. *)

val property_names : t -> string list

(** {2 Monitoring} *)

val step : t -> unit
(** One trigger: advance every monitor by one observation step. *)

val trigger : t -> unit
(** One trigger, publishing the [Trace.Trigger] event first — what the
    simulation trigger loops ({!Trigger}, the session backends) call. *)

val steps : t -> int

val active_properties : t -> int
(** Properties the next trigger will visit: pending monitors plus final
    ones whose verdict is still unpublished on the trace bus. Settled,
    published properties are skipped by the trigger plan. *)

val sampled_propositions : t -> string list
(** The shared sample vector of the next trigger, in probe (sorted name)
    order: the union of the pending properties' supports. Propositions
    supporting only settled properties are no longer probed. *)

val verdict : t -> string -> Verdict.t
(** Current verdict of a property.
    @raise Invalid_argument for unknown names (the message lists the
    registered property names). *)

val verdict_opt : t -> string -> Verdict.t option
(** Non-raising {!verdict}; [None] for unknown names. *)

val verdicts : t -> (string * Verdict.t) list

val overall : t -> Verdict.t
(** {!Verdict.combine} over all properties. *)

val finalize : ?strong:bool -> t -> (string * Verdict.t) list
(** End-of-trace verdicts (does not mutate the checker). *)

val first_final_at : t -> string -> int option
(** Time unit (via the installed time source) at which a property first
    reached a final verdict, if it has.
    @raise Invalid_argument for unknown names (the message lists the
    registered property names). *)

val first_final_at_opt : t -> string -> int option
(** Non-raising {!first_final_at}; [None] for unknown names and for
    properties that never reached a final verdict. *)

val reset : t -> unit
(** Reset all monitors and stateful propositions to their initial states. *)

val synthesis_seconds : t -> float
(** Total explicit AR-automaton exploration time accumulated by
    [add_property] — the paper's "AR-automaton generation time" component
    of verification time. *)

val on_violation : t -> (string -> int -> unit) -> unit
(** Install a callback invoked as [f property_name step] the first time a
    property's verdict turns [False]. *)
