(** The probabilistic stimuli layer of statistical model checking: one
    record naming every fault-injection knob, applied to a
    {!Verif.Session.config} before the session is built.

    Three fault classes, each drawn from its own {!Stimuli.Prng}
    substream of the session seed so every sampled run is replayable
    from (seed, fault config), and enabling one class never shifts the
    draws of another:

    - flash bit decay ({!Dataflash.Flash.fault_config.decay_prob}) —
      silent retention loss, per tick;
    - power loss mid-operation
      ({!Dataflash.Flash.fault_config.power_loss_prob}) — torn writes
      and partial block erases;
    - handshake timing jitter (derived model only) — statements
      probabilistically stretched by extra time units, so busy-wait
      handshakes can expire.

    A zero-probability knob draws nothing: {!none} is bit-identical to
    the unfaulted model (golden traces hold byte for byte). *)

type t = {
  decay : float;  (** per-tick flash bit-decay probability *)
  power_loss : float;  (** per-operation power-loss probability *)
  jitter_prob : float;  (** per-statement jitter probability *)
  jitter_max : int;  (** max extra time units a jittered statement takes *)
}

val none : t
val is_none : t -> bool

val apply : t -> Verif.Session.config -> Verif.Session.config
(** Set the session's [flash_faults]/[jitter_prob]/[jitter_max] fields. *)

val parse_knob : string -> t -> t
(** Parse one command-line knob — ["decay=P"], ["power-loss=P"] or
    ["jitter=P:MAX"] — into an update of the given record.
    @raise Loc.Error at the knob name or at the value that does not
    parse. *)

val to_string : t -> string
(** Knob syntax round trip (["none"] for {!none}), for labels/logs. *)
