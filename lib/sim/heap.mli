(** Minimal binary min-heap keyed by integer priorities.

    Used by the simulation kernel to order timed wake-ups. Elements with
    equal keys are popped in insertion order (stable), which the kernel relies
    on so that processes due at the same time wake in the order they called
    [Kernel.wait_for]. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [push heap key value] inserts [value] with priority [key]. *)
val push : 'a t -> int -> 'a -> unit

(** [min_key heap] is the smallest key, or [None] when empty. *)
val min_key : 'a t -> int option

(** [pop heap] removes and returns the entry with the smallest key.
    @raise Not_found when the heap is empty. *)
val pop : 'a t -> int * 'a
