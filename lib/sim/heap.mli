(** Minimal binary min-heap keyed by integer priorities.

    Used by the simulation kernel to order timed wake-ups. Elements with
    equal keys are popped in insertion order (stable), which the kernel relies
    on so that timed processes due at the same time run in the order of the
    runs that scheduled them. Once its arrays have grown, neither {!push},
    {!min_key} nor {!pop} allocates. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [push heap key value] inserts [value] with priority [key]. *)
val push : 'a t -> int -> 'a -> unit

(** [min_key heap] is the smallest key.
    @raise Not_found when the heap is empty. *)
val min_key : 'a t -> int

(** [pop heap] removes the entry with the smallest key and returns its
    value; {!min_key} just before gives its key.
    @raise Not_found when the heap is empty. *)
val pop : 'a t -> 'a
