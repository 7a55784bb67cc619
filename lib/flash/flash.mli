(** Data-flash device model (the case study's storage hardware).

    The model captures the properties the EEPROM-emulation software is
    built around: the flash is organised in blocks of words; an erased word
    reads as all-ones (-1); programming is only possible on erased words;
    erasing works on whole blocks and is slow; operations take time, during
    which the device reports busy; writes and erases can fail (injected
    faults and permanently bad blocks), leaving the device in an error
    state the software must handle.

    Timing is modelled in ticks: {!tick} is called once per clock cycle by
    the SoC (approach 1) or per access by the virtual memory model
    (approach 2). A pending operation completes when its latency expires. *)

type t

type config = {
  num_blocks : int;
  words_per_block : int;
  erase_ticks : int;  (** latency of a block erase *)
  write_ticks : int;  (** latency of a word program *)
  write_fail_prob : float;  (** chance an individual program op fails *)
  erase_fail_prob : float;
}

val default_config : config
(** 4 blocks x 128 words, erase 50 ticks, write 5 ticks, no faults. *)

type fault_config = {
  decay_prob : float;
      (** per-tick chance that one low bit of a random programmed word
          relaxes back toward the erased all-ones state — silent
          retention loss, no fault status *)
  power_loss_prob : float;
      (** per accepted operation: chance power is lost mid-way, leaving
          a torn result (a write with a random subset of bits never
          programmed; an erase with only a prefix of the block blank)
          and the device in [Fault] *)
}
(** Probabilistic fault-injection overlay for statistical model
    checking ({!Smc}): unlike [write_fail_prob]/[erase_fail_prob]
    (the paper's fixed-stimulus fault knobs, drawn from the main PRNG),
    each overlay class draws from its own substream, so enabling one
    never shifts another — and a zero-probability class draws nothing,
    keeping fault-free runs bit-identical to the seed model. *)

val no_faults : fault_config

val create : ?prng:Stimuli.Prng.t -> ?faults:fault_config -> config -> t
(** [faults] defaults to {!no_faults}. *)

val config : t -> config
val size_words : t -> int

(** {2 Status} *)

type status = Ready | Busy | Fault
(** [Fault]: the last operation failed; cleared by {!clear_fault}. *)

val status : t -> status
val clear_fault : t -> unit

(** {2 Operations} — only accepted when {!status} is [Ready]; otherwise
    they are rejected with [Error `Busy]. *)

val read_word : t -> int -> int
(** Combinational read of a cell ([-1] when erased).
    @raise Invalid_argument on out-of-range addresses. *)

val start_write : t -> addr:int -> value:int -> (unit, [ `Busy | `Not_erased | `Bad_address ]) result
(** Begin programming; completes (or fails) after [write_ticks] ticks. *)

val start_erase : t -> block:int -> (unit, [ `Busy | `Bad_address ]) result

val is_blank : t -> block:int -> bool
(** All words of the block erased? *)

val mark_bad_block : t -> int -> unit
(** Operations on this block will always fail (permanent fault). *)

val tick : t -> unit
(** Advance time by one tick. *)

val ticks_remaining : t -> int
(** 0 when no operation pending. *)

(** {2 Statistics} *)

val writes_completed : t -> int
val erases_completed : t -> int
val faults_injected : t -> int

val decays_injected : t -> int
(** Bits decayed so far (visible cell changes only). *)

val power_losses_injected : t -> int
(** Operations torn by an injected power loss. *)

val reset : t -> unit
(** Erase everything, clear faults and statistics (bad blocks persist). *)
