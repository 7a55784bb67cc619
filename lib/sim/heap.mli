(** Minimal binary min-heap of integers keyed by integer priorities.

    Used by the simulation kernel to order timed wake-ups by process
    number. Elements with equal keys are popped in insertion order
    (stable), which the kernel relies on so that timed processes due at
    the same time run in the order of the runs that scheduled them. Keys
    and values are ints, so no {!push} or {!pop} stores a pointer (no
    write barrier), and once the arrays have grown none allocates. *)

type t

val create : unit -> t

val is_empty : t -> bool

(** [push heap key value] inserts [value] with priority [key]. *)
val push : t -> int -> int -> unit

(** [min_key heap] is the smallest key.
    @raise Not_found when the heap is empty. *)
val min_key : t -> int

(** [pop heap] removes the entry with the smallest key and returns its
    value; {!min_key} just before gives its key.
    @raise Not_found when the heap is empty. *)
val pop : t -> int
