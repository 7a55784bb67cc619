(** Executor for the derived software model (approach 2).

    The derived model's software runs in a timed kernel process
    ({!Sim.Kernel.spawn_timed}) that steps its VM ({!Minic.Vm.step}):
    each run executes the statement begun at the last tick up to the
    next tick, notifies [esw_pc_event] and asks to run again one time
    unit later, making simulation time equal the statement count — the
    paper's program-counter timing reference. The temporal checker
    attaches to [pc_event]; time bounds in properties are therefore
    counted in statements, not clock cycles, which is why the same
    property needs far smaller bounds than under approach 1.

    The model holds its {!Minic.Vm.t} and the hooks it runs with: memory
    operations go to a {!Vmem}, [nondet] draws from a deterministic
    stimulus stream, and flash-style devices that need a time base are
    advanced once per statement through [on_tick]. *)

type outcome_state =
  | Not_started
  | Running
  | Done of Minic.Vm.outcome
  | Crashed of exn  (** assertion failure / runtime error of the software *)

type t

val create :
  Sim.Kernel.t ->
  ?seed:int ->
  ?on_tick:(unit -> unit) ->
  ?jitter:(unit -> int) ->
  C2sc.derived ->
  vmem:Vmem.t ->
  t
(** [jitter] (default none) is drawn once per executed statement; a
    positive result adds that many extra simulation time units to the
    statement's duration — probabilistic handshake timing jitter for
    statistical model checking. The statement count itself (and with it
    {!statements}) is unaffected; only the kernel-time cost of each
    statement stretches, so time-budgeted runs cover fewer statements
    and busy-wait handshakes can expire. Draw jitter from a dedicated
    {!Stimuli.Prng} substream to keep runs replayable. *)

val derived : t -> C2sc.derived

val pc_event : t -> Sim.Kernel.event

val statements : t -> int
(** Statements executed so far (= simulation time units consumed). *)

val read_member : t -> string -> int
(** Observe a class member (global variable) of the running model.
    @raise Invalid_argument for unknown or array members. *)

val member_reader : t -> string -> unit -> int
(** {!read_member} with the member found once, for a value sampled on
    every trigger.
    @raise Invalid_argument for unknown or array members, at once. *)

val outcome : t -> outcome_state

val start : ?fuel:int -> t -> entry:string -> unit
(** Spawn the model's process; default fuel 50 million statements. The
    software's first statement begins in the next evaluation phase of
    {!Sim.Kernel.run}. When it returns, or crashes with an assertion or
    assumption failure or a runtime error (caught into [Crashed]), the
    model notifies [pc_event] once more, to expose the final state, and
    its process ends one time unit later. Any other exception escapes
    {!Sim.Kernel.run} and ends the process. *)
