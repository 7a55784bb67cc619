(** Instruction-accurate CPU core: one instruction per {!step}.

    The core fetches encoded instructions over the bus, so code, data and
    devices share one address space and the temporal checker can observe
    every architectural state change through the same bus. Execution stops
    at [halt] or at a [trap] (assert/assume failure, runtime fault). *)

type stop_reason =
  | Running
  | Halted
  | Trapped of int  (** {!Isa.trap_assert} etc. *)

type t

val create : Bus.t -> start_pc:int -> ?stack_pointer:int -> unit -> t

val bus : t -> Bus.t
val reg : t -> int -> int
val stop_reason : t -> stop_reason
val running : t -> bool
val instructions_retired : t -> int

val step : t -> unit
(** Execute one instruction; no-op once stopped. Division by zero and
    unmapped accesses become traps ({!Isa.trap_division},
    {!Isa.trap_bounds}) rather than exceptions, as on real hardware. *)

val run : ?max_instructions:int -> t -> stop_reason
(** Step until stopped or the budget runs out (for standalone tests;
    inside a simulation the platform steps the core on clock edges). *)
