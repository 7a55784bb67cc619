(** Word-addressed system bus with memory-mapped devices.

    The bus is the checker's interface into the system (the paper's
    [sctc_sc_read_uint (addr)] memory interface reads through it), the
    CPU's path to memory, and — in approach 2 — the backing store of the
    virtual memory model, so both approaches talk to identical device
    models. *)

type t

(** A device occupies [[base, base + size)] in the word-address space.
    [read]/[write] receive the offset relative to [base]. *)
type device = {
  dev_name : string;
  base : int;
  size : int;
  read : int -> int;
  write : int -> int -> unit;
}

exception Bus_error of int
(** Access to an unmapped address. *)

val create : unit -> t

val attach : t -> device -> unit
(** @raise Invalid_argument if the range overlaps an attached device. *)

val read : t -> int -> int
val write : t -> int -> int -> unit

val peek : t -> int -> int
(** Like {!read} but meant for monitors: reads through to the device
    without counting as bus traffic. *)

val reads : t -> int
val writes : t -> int
(** Access counters (bus traffic statistics). *)
