(** The approach-1 platform: microprocessor + memory + devices on one bus,
    clocked by the simulation kernel (Fig. 2 of the paper).

    The SoC owns the kernel, a clock, the CPU (stepped one instruction per
    rising edge), RAM, the data-flash controller (ticked every cycle), the
    stimulus port feeding constrained-random values into [nondet], the
    testbench mailbox, and a console. The temporal checker attaches to the
    clock and reads software state through {!read_mem} — the
    [sctc_sc_read_uint] memory interface of the paper. *)

type t

type config = {
  clock_period : int;
  flash : Dataflash.Flash.config;
  flash_faults : Dataflash.Flash.fault_config;
      (** probabilistic fault-injection overlay (default
          {!Dataflash.Flash.no_faults}) *)
  seed : int;  (** master PRNG seed for stimulus *)
}

val default_config : config

val create : ?config:config -> unit -> t

val kernel : t -> Sim.Kernel.t
val clock : t -> Sim.Clock.t
val cpu : t -> Cpu.Cpu_core.t
val flash : t -> Dataflash.Flash.t
val mailbox : t -> Mailbox.t

val load : t -> Mcc.Codegen.compiled -> unit
(** Load a compiled program image at address 0 and record its symbol
    table. *)

val symtab : t -> Mcc.Symtab.t
(** @raise Invalid_argument before {!load}. *)

val read_mem : t -> int -> int
(** The checker's memory interface: observe a word without generating bus
    traffic. *)

val read_var : t -> string -> int
(** Variable observation via the symbol table (paper flow steps a/b). *)

val console_output : t -> int list
(** Values written to the console port, oldest first. *)

val run : ?max_cycles:int -> t -> unit
(** Advance the simulation (resumable). The clock, the flash and the
    checker triggers keep running after the CPU halts or traps; the run
    ends at the cycle budget or at a {!Sim.Kernel.stop}. *)

val cycles : t -> int

val cpu_stopped : t -> bool
