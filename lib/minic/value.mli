(** 32-bit two's-complement arithmetic, matching the target CPU.

    MiniC integers behave like C [int32_t] on the modelled processor:
    wrap-around on overflow, truncation toward zero for division, shift
    amounts masked to 0..31. Values are stored as OCaml [int] in the
    canonical signed range [-2^31, 2^31-1]. *)

exception Division_by_zero

val wrap : int -> int
(** Reduce any OCaml int to the canonical signed 32-bit range. *)

val to_unsigned : int -> int
(** Canonical value reinterpreted as unsigned (0 .. 2^32-1). *)

val of_unsigned : int -> int
(** Inverse of {!to_unsigned}. *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int

val div : int -> int -> int
(** C semantics: truncation toward zero. @raise Division_by_zero. *)

val rem : int -> int -> int
(** Sign follows the dividend. @raise Division_by_zero. *)

val neg : int -> int
val logand : int -> int -> int
val logor : int -> int -> int
val logxor : int -> int -> int
val lognot : int -> int

val shift_left : int -> int -> int
(** Shift amount masked to 0..31. *)

val shift_right : int -> int -> int
(** Arithmetic (sign-extending) right shift, amount masked to 0..31. *)

val shift_right_logical : int -> int -> int

val of_bool : bool -> int
val to_bool : int -> bool
(** C truthiness: non-zero is true. *)

(** {2 Operator tables}

    The C semantics of MiniC's operators on evaluated operands, shared
    by the evaluators that walk the AST. Each evaluator short-circuits
    [&&] and [||] itself. *)

val binop : Ast.binop -> int -> int -> int
(** Every binary operator but [Land] and [Lor].
    @raise Division_by_zero for [Div] and [Mod] by zero.
    @raise Invalid_argument for [Land] and [Lor]. *)

val unop : Ast.unop -> int -> int
