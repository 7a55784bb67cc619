(** Free-running clock generator. Approach 1 of the paper uses the
    microprocessor clock as the timing reference of the temporal checker;
    this module provides that clock, a timed kernel process that notifies
    [posedge] and counts cycles. *)

type t

(** [create kernel ~name ~period] registers the clock with the kernel
    ({!Kernel.spawn_timed}): it notifies [posedge] every [period] time
    units, the first time in the first delta cycles of the simulation.
    Run on every edge with [Kernel.spawn_method kernel (posedge clock)].
    @raise Invalid_argument unless [period >= 1]. *)
val create : Kernel.t -> name:string -> period:int -> t

val posedge : t -> Kernel.event

val cycles : t -> int
(** Number of posedges emitted so far. *)
