(** 32-bit two's-complement bit-vector circuits over the AIG —
    the bit-blasting layer of the bounded model checker. Semantics match
    {!Minic.Value} exactly (wrap-around, truncating division, masked
    shifts); the test suite checks this equivalence exhaustively with
    random vectors. *)

type t = Aig.lit array
(** 32 literals, least significant bit first. *)

val const : int -> t
(** Constant from the canonical signed range. *)

val fresh : Aig.t -> string -> t
(** 32 fresh inputs named ["name.0" .. "name.31"]. *)

val to_const : t -> int option
(** The value when all bits are constant. *)

(** {2 Arithmetic} *)

val add : Aig.t -> t -> t -> t
val sub : Aig.t -> t -> t -> t
val neg : Aig.t -> t -> t
val mul : Aig.t -> t -> t -> t

val divrem : Aig.t -> t -> t -> t * t
(** C99 semantics (truncation toward zero, remainder sign follows the
    dividend). The divisor-zero case yields unspecified results — the
    executor emits a separate division-by-zero verification condition. *)

(** {2 Bitwise / shifts} *)

val logand : Aig.t -> t -> t -> t
val logor : Aig.t -> t -> t -> t
val logxor : Aig.t -> t -> t -> t
val lognot : Aig.t -> t -> t

val shift_left : Aig.t -> t -> t -> t
(** Barrel shifter; the amount is masked to 0..31 like the CPU. *)

val shift_right_arith : Aig.t -> t -> t -> t
val shift_right_logical : Aig.t -> t -> t -> t

(** {2 Predicates (single literals)} *)

val eq : Aig.t -> t -> t -> Aig.lit
val ne : Aig.t -> t -> t -> Aig.lit
val lt_signed : Aig.t -> t -> t -> Aig.lit
val le_signed : Aig.t -> t -> t -> Aig.lit
val is_zero : Aig.t -> t -> Aig.lit

val of_bool : Aig.lit -> t
(** 0/1-extension of a single bit. *)

val truthy : Aig.t -> t -> Aig.lit
(** C truthiness: value is non-zero. *)

val mux : Aig.t -> Aig.lit -> t -> t -> t

val eval : Aig.t -> assignment:(Aig.lit -> bool) -> t -> int
(** Concrete signed value under an input assignment. *)
