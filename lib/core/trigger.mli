(** Connecting a checker to its timing reference.

    The paper's two approaches differ only in what triggers the checker:
    the microprocessor clock (approach 1) or the derived software model's
    program-counter event (approach 2). These helpers register a kernel
    method ({!Sim.Kernel.spawn_method}) sensitive to the trigger that
    steps the checker. Approach 1's handshake, which waits for the
    software's initialization flag before arming the properties, is
    [Platform.Esw_monitor].

    When the checker carries a live {!Trace.t} bus, the trigger publishes
    a [Handshake_armed] event in the method's first evaluation phase and
    a [Trigger] event before every step. *)

val on_event : Sim.Kernel.t -> Sim.Kernel.event -> Checker.t -> unit
(** Step the checker every time the event is notified. *)

val on_clock : Sim.Kernel.t -> Sim.Clock.t -> Checker.t -> unit
(** Step the checker on every rising clock edge. *)
