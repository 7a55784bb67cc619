(** Deterministic pseudo-random number generation (SplitMix64).

    Constrained-random verification must be reproducible: a failing test
    case is re-run from its seed. All stimulus in the repository flows from
    this generator — never from the global [Random] state. *)

type t

val create : seed:int -> t

val split : t -> string -> t
(** Derive an independent, deterministically-named substream; used to give
    every stimulus source its own stream so adding one source does not
    shift the values of others. *)

val of_seed_index : seed:int -> index:int -> t
(** The seed-splitting contract of parallel campaigns: stream [index] of
    campaign [seed]. The same (seed, index) pair is bit-reproducible
    across runs, and distinct indices yield independent streams — so a
    campaign's per-job stimulus is identical no matter how many workers
    execute it, or in which order. *)

(** A scratch stream private to the calling domain, stored in
    [Domain.DLS]. Its seed depends on domain spawn order, so use it only
    for diagnostics or test-interleaving shuffles — never for stimulus,
    which must flow from {!of_seed_index} or {!split} to stay
    reproducible across worker counts. *)
module Domain_local : sig
  val stream : unit -> t
end

val next_int64 : t -> int64

val bits : t -> int
(** 62 non-negative random bits. *)

val int_range : t -> lo:int -> hi:int -> int
(** Uniform in [[lo, hi]] (inclusive). @raise Invalid_argument if empty. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance g p] is true with probability [p] (clamped to [0,1]). *)

val pick : t -> 'a list -> 'a
(** Uniform choice. @raise Invalid_argument on empty list. *)

val pick_weighted : t -> (int * 'a) list -> 'a
(** Choice proportional to non-negative weights.
    @raise Invalid_argument if all weights are zero or the list is empty. *)
