(** One verification session: a software backend, a temporal checker wired
    to the backend's timing reference, and a trace bus — the single place
    where a verification backend is assembled.

    The two backends are the paper's two approaches:

    - {!Soc_model} (approach 1): the software compiled and loaded into the
      cycle-level SoC; the checker is clock-triggered, optionally through
      the ESW monitor's initialization-flag handshake ([config.flag]).
      Time units are clock cycles.
    - {!Derived_model} (approach 2): the derived software model running in
      the simulation kernel with the standard device topology (data-flash
      controller + window, mailbox) mapped into its virtual memory; the
      checker is program-counter-event triggered. Time units are executed
      statements.

    The session installs its time-unit counter as the checker's and the
    trace bus's time source, so first-final-verdict stamps and trace
    events carry backend time. *)

type backend = Soc_model | Derived_model

type config = {
  session_name : string;  (** checker name, used in error messages *)
  engine : Sctc.Checker.engine;  (** for [config.properties] *)
  properties : (string * string) list;
      (** name, property text — FLTL or PSL, auto-detected by
          [Sctc.Prop] *)
  propositions : (string * string) list;
      (** name, pure boolean MiniC expression over the software's scalar
          globals, read by {!check_proposition} *)
  bound : int option;  (** default time-unit budget of {!run} *)
  fuel : int;  (** statement budget of the derived model *)
  chunk : int;  (** time units per {!advance} *)
  seed : int;  (** stimulus master seed *)
  flash : Dataflash.Flash.config option;  (** [None]: platform default *)
  flash_faults : Dataflash.Flash.fault_config;
      (** probabilistic fault-injection overlay on the flash model (bit
          decay, power loss mid-operation), applied to both the SoC and
          the derived-model flash; {!Dataflash.Flash.no_faults} (the
          default) draws nothing and is bit-identical to the seed
          model *)
  jitter_prob : float;
  jitter_max : int;
      (** handshake timing jitter for the derived model: with
          [jitter_prob] per executed statement, stretch the statement by
          1..[jitter_max] extra time units (statement counts, and with
          them property time bases, are unaffected — only kernel-time
          cost). Disabled unless both are positive; drawn from the
          session seed's ["handshake-jitter"] substream. The SoC backend
          ignores it (its timing is the cycle clock). *)
  flag : string option;
      (** approach-1 only: attach the ESW monitor with this
          initialization-flag variable instead of a bare clock trigger *)
  exec_backend : Minic.Exec.kind;
      (** how the derived model executes MiniC: the bytecode VM ([Vm],
          the default) or the interpreter oracle ([Interp]). Ignored by
          the SoC backend. *)
  trace : Trace.t;  (** event bus; {!Trace.null} disables tracing *)
  metrics : Obs.Registry.t;
      (** metrics registry threaded into the checker and the session's
          stage timers; {!Obs.Registry.null} (the default) disables
          recording at the cost of one boolean test per site *)
}

val default_config : config
(** ["session"], on-the-fly engine, no properties, no bound, fuel 50e6,
    chunk 60, seed 42, default flash, no injected faults or jitter, no
    flag, VM exec backend, null trace, null metrics registry. *)

type t

val create :
  ?compiled:Mcc.Codegen.compiled ->
  ?derived:Esw.C2sc.derived ->
  ?info:Minic.Typecheck.info ->
  config ->
  backend ->
  t
(** Assemble the backend, attach the checker to its trigger, and register
    [config.propositions] / [config.properties]. Each backend needs its
    program in one of the accepted forms — [Soc_model]: [~compiled] (or
    [~info], compiled here); [Derived_model]: [~derived] (or [~info],
    derived here). Passing a memoized
    [~compiled]/[~derived] avoids recompiling per session. Each of
    [config.propositions] is read by {!check_proposition} against
    [~info], or else [~derived]'s program.
    @raise Invalid_argument when the needed form is missing.
    @raise Loc.Error when a proposition does not pass
    {!check_proposition}. *)

val check_proposition : Minic.Typecheck.info -> string -> Minic.Ast.expr
(** Read a [config.propositions] text against the program: it parses,
    is pure, and names only the program's scalar globals or [fname].
    {!create} reads every proposition through it; a caller that wants
    the error before any session is built calls it first.
    @raise Loc.Error at the first offending token. *)

exception Proposition_failed of string * Loc.error
(** A proposition's name and the operator in its text where evaluation
    met a zero divisor, raised at the trigger that sampled it.
    [Printexc.to_string] renders it ["proposition NAME: LINE:COL:
    division by zero"]. *)

(** {2 Introspection} *)

val backend_name : t -> string
val checker : t -> Sctc.Checker.t
val trace : t -> Trace.t

val read_var : t -> string -> int
(** Observe a software global through the backend's memory interface. *)

val in_function : t -> string -> Proposition.t
(** Proposition "execution is inside this function" ([fname]-based). *)

val mailbox : t -> Platform.Mailbox.t
(** The testbench request/response mailbox. *)

val time_units : t -> int
(** Cycles (SoC) / statements (derived model) consumed. *)

val alive : t -> bool
(** The software is still executing (or has not started yet). *)

val crashed : t -> string option
(** Trap / assertion failure / runtime error of the software, if any. *)

(** {2 Driving} *)

val boot : t -> unit
(** Bring the backend up: with an ESW monitor, run until the handshake
    completes (at most 50 attempts of 200 cycles, [failwith] on
    failure); derived model: run one initialization chunk;
    SoC without a monitor: no-op. *)

val advance : t -> unit
(** Progress the simulation by [config.chunk] time units. *)

val run : ?bound:int -> t -> unit
(** Advance by [bound] time units from now (default [config.bound], then
    [config.fuel]). Stops early when the software halts. *)

(** {2 Results} *)

val restart_timer : t -> unit
(** Zero the wall-clock and time-unit baselines used by {!result} (e.g.
    at the start of a campaign, excluding boot cost). *)

val result :
  ?test_cases:int -> ?timeouts:int -> ?coverage:Sctc.Coverage.t -> t ->
  Result.t
(** Snapshot verdicts, trigger counts, per-property first-final times and
    the wall-clock/synthesis split since the last {!restart_timer} (or
    session creation). *)

val close : t -> unit
(** Close the trace bus's sinks (flushes a JSONL file sink). *)
