(** Process-wide metrics and profiling registry.

    A registry holds named metrics — monotonic counters, gauges,
    fixed-bucket histograms and stage timers — identified by a name plus
    an optional label set (e.g. [("op", "read")]). Recording is
    domain-safe and shard-free on the hot path: every metric keeps one
    private cell per domain ([Domain.DLS]), registered once per domain
    under the metric's mutex, so campaign workers never serialize on a
    metrics lock; reads ([value], [snapshot], the exporters) sum over
    the per-domain cells.

    {!null} is the disabled registry: every metric it hands out is a
    shared no-op whose recording operations compile to one pattern
    match, so instrumented hot paths cost nothing measurable when
    metrics are off (the bench gates this at <= 5 %). *)

type t

val create : unit -> t
(** A fresh, enabled registry. *)

val null : t
(** The disabled registry: hands out no-op metrics, snapshots empty. *)

val enabled : t -> bool

type labels = (string * string) list
(** Label pairs; canonicalized by sorting on the key, so the same set
    in any order names the same metric. *)

(** {2 Metric handles}

    Handles are cheap to keep and safe to share across domains.
    Requesting the same (name, labels) twice returns the same metric.
    @raise Invalid_argument when a name+labels is re-requested as a
    different metric kind. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  (** Exact sum over all domains that ever recorded. *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one observation into its bucket (first upper bound [>=]
      the value; larger values land in the implicit [+inf] bucket). *)

  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** [(upper_bound, cumulative_count)] per bucket, ending with the
      [(infinity, count)] overflow bucket. *)

  val quantile : t -> float -> float
  (** Upper bound of the bucket holding the [q]-th quantile observation
      (0 when empty, [infinity] when it falls in the overflow bucket).
      Bucket-resolution only — the usual fixed-bucket estimate. *)
end

module Timer : sig
  type t = Histogram.t
  (** A timer is a histogram of durations in seconds. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk and record its wall-clock duration. On a no-op
      timer the thunk runs without any clock reads. *)

  val observe : t -> float -> unit
  val seconds : t -> float
  (** Total recorded seconds ({!Histogram.sum}). *)
end

(** {2 Registration} *)

val counter : ?help:string -> ?labels:labels -> t -> string -> Counter.t
val gauge : ?help:string -> ?labels:labels -> t -> string -> Gauge.t

val histogram :
  ?help:string -> ?labels:labels -> ?buckets:float array -> t -> string ->
  Histogram.t
(** [buckets] are strictly increasing upper bounds (default: log-spaced
    seconds, 1us .. 10s); the [+inf] overflow bucket is implicit. *)

val timer : ?help:string -> ?labels:labels -> t -> string -> Timer.t

(** {2 Stage timers}

    The pipeline stages every front end shares. Stage timings overlap
    by construction — [Check] (per-trigger checker latency) runs inside
    [Simulate] — so they are a breakdown, not a partition. *)

type stage = Parse | Synthesize | Simulate | Check | Merge

val stage_name : stage -> string
(** ["stage_<stage>_seconds"], e.g. [Simulate -> "stage_simulate_seconds"]. *)

val stage_timer : t -> stage -> Timer.t

(** {2 Snapshots} *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of { count : int; sum : float; buckets : (float * int) list }

type metric = { name : string; labels : labels; help : string; value : value }

val snapshot : t -> metric list
(** All metrics in registration order. [null] snapshots to [[]]. *)

val total : t -> string -> int
(** Sum of every counter with this name, over all label sets. *)

val sum_seconds : t -> string -> float
(** Sum of every histogram/timer [sum] with this name, over all label
    sets — e.g. [sum_seconds r (stage_name Simulate)]. *)
