(** The ESW monitor module (paper Fig. 3).

    Wraps the SCTC into the SoC: it is triggered by the CPU clock (the
    paper's real-time timing reference), first performs the handshake with
    the embedded software — polling the initialization [flag] variable in
    processor memory — and only then arms the temporal property monitors.
    From that point on, every rising clock edge samples the propositions
    and steps every AR-automaton.

    When the checker carries a live {!Sctc.Trace.t} bus, the monitor
    publishes [Handshake_armed] (source ["esw_monitor"]) once the flag
    poll completes and a [Trigger] event per monitored clock edge. *)

type t

val attach : Soc.t -> flag:string -> Sctc.Checker.t -> t
(** [attach soc ~flag checker] registers the monitor with the SoC's
    kernel, a method sensitive to the clock's rising edge
    ({!Sim.Kernel.spawn_method}) that keeps its handshake state in [t].
    [flag] is the name of the software's initialization global (paper:
    [bool flag], lines 3–5 of Fig. 3). Properties and propositions must
    already be registered with [checker]. *)

val attach_at : Soc.t -> flag_address:int -> Sctc.Checker.t -> t
(** Same, with an explicit memory address for the flag. *)

val initialized : t -> bool
(** Has the handshake completed? *)

val armed_at_cycle : t -> int option
(** Clock cycle at which monitoring started. *)

val checker : t -> Sctc.Checker.t
