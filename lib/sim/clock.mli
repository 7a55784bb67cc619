(** Free-running clock generator. Approach 1 of the paper uses the
    microprocessor clock as the timing reference of the temporal checker;
    this module provides that clock as a kernel process that notifies
    [posedge] periodically and counts cycles. *)

type t

(** [create kernel ~name ~period ()] spawns the clock process, which
    notifies [posedge] every [period] time units ([period >= 1]). The first
    posedge occurs at time [phase] (default 0, i.e. the first delta cycles
    of the simulation). *)
val create : Kernel.t -> name:string -> period:int -> ?phase:int -> unit -> t

val posedge : t -> Kernel.event

val cycles : t -> int
(** Number of posedges emitted so far. *)

val wait_posedge : t -> unit
(** Suspend the calling process until the next rising edge. *)
