(** Simple word-addressed RAM device. *)

type t

val create : name:string -> base:int -> size:int -> t

val device : t -> Bus.device

val load : t -> int -> int list -> unit
(** [load ram addr words] writes a program/data image at absolute word
    address [addr] (must lie within the RAM range). *)

val get : t -> int -> int
(** Direct access by absolute address (no bus traffic). *)
