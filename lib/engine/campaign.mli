(** Parallel verification campaigns on a domain pool.

    The paper's evaluation is embarrassingly parallel: up to a million
    independent monitored simulations per property, whose verdicts are
    merged afterwards. A campaign is a list of {!job}s — each one an
    independent verification run (property x stimulus seed x approach)
    producing a {!Result.t} — fanned out over a fixed pool of
    [Domain.spawn] workers, each claiming the next job with one atomic
    increment.
    {!run_stream} hands finished outcomes to an ordered reassembly
    buffer that emits them to {!sink}s strictly in job order as soon as
    the order allows, with a bounded window and backpressure: live
    memory stays bounded by window + workers outcomes instead of the
    whole campaign, and the merge cost is paid incrementally while
    workers are still simulating.

    Determinism contract: output is ordered by job index, never by
    completion order, and every job gets a private trace bus whose
    buffered events reach the sinks in job order with a campaign-global
    [seq] — so verdict vectors, merged counters and JSONL trace output
    are byte-identical for 1 worker and N workers.
    Jobs must not share mutable state: a job builds its own session
    inside the engine and derives its stimulus from
    {!Stimuli.Prng.of_seed_index}, not from a shared generator. *)

type job = {
  label : string;  (** shown in reports and error messages *)
  run : Trace.t -> Result.t;
      (** executes the whole job against a fresh, private trace bus; the
          campaign owns the bus (the job must not [Trace.close] it) *)
}

type outcome = {
  index : int;  (** position in the submitted job list *)
  label : string;
  result : (Result.t, string) result;
      (** [Error] carries the printed exception of a crashed job; a crash
          is confined to its job and never poisons the pool *)
  events : Trace.event list;
      (** the job's trace with campaign-global [seq], as delivered to
          the sinks; [[]] when no sink of the campaign reads events (the
          job's bus then only counts them, and [Result.trace_events]
          still does), and always [[]] in summaries (events are handed
          to the sinks, not retained) *)
}

type stream_stats = {
  window : int;  (** configured reassembly-window bound *)
  peak_window : int;  (** most outcomes ever parked at once *)
  emitted : int;
      (** outcomes emitted to the sinks (= job count unless the
          campaign was cancelled) *)
  backpressure_waits : int;
      (** deposits that blocked because the window was full *)
  backpressure_seconds : float;  (** total time spent in those waits *)
  cancelled_jobs : int;
      (** jobs never started because the campaign was cancelled first;
          0 for a campaign that ran to completion *)
}

type summary = {
  outcomes : outcome list;  (** ascending job index *)
  workers : int;  (** effective pool size *)
  wall_seconds : float;  (** wall clock of the whole campaign *)
  stream : stream_stats;
}

(** A streaming consumer of campaign outcomes. [on_outcome] is called
    once per job, strictly in ascending job index order, with the
    outcome's events numbered with the campaign-global [seq] —
    serially, under the reassembly lock, from whichever domain deposited
    the frontier outcome (sinks need not be thread-safe, but must not
    call back into the campaign). [on_close] is called once, after the
    pool joins. A sink that raises is disabled for the rest of the run
    and the exception resurfaces as a [Failure] after the campaign
    completes — the pool itself is never poisoned.

    [reads_events] declares whether [on_outcome] reads
    [outcome.events]. When no sink of a campaign does, its jobs buffer
    no events and every outcome arrives with [events = []]; a sink that
    counts or decides on verdicts says [false] so an untraced campaign
    keeps no trace in memory. *)
type sink = {
  on_outcome : outcome -> unit;
  on_close : unit -> unit;
  reads_events : bool;
}

val job : label:string -> (Trace.t -> Result.t) -> job

(** {2 Early stopping}

    Cooperative cancellation for {!run_stream} — the statistical model
    checker's lever ({!Smc.Runner}): a sequential test that reaches a
    decision cancels the rest of the campaign. Cancellation is polled
    before every job claim and every claimed job runs to completion,
    so the executed set is always a contiguous prefix of the job list
    and at most one job per worker runs past the cancel: every executed
    outcome still reaches the sinks in order, no worker is left blocked
    on the reassembly window, and the window drains to empty before the
    pool joins. *)

type cancellation

val cancellation : unit -> cancellation
(** A fresh token, initially not cancelled. *)

val cancel : cancellation -> unit
(** Request early stop; safe from any domain — including a sink running
    under the reassembly lock. Idempotent. *)

val cancelled : cancellation -> bool

val run_stream :
  ?metrics:Obs.Registry.t ->
  ?workers:int ->
  ?window:int ->
  ?cancel:cancellation ->
  ?sinks:sink list ->
  job list ->
  summary
(** Execute the campaign on [workers] domains (default 1; clamped to the
    number of jobs): the calling domain works alongside [workers - 1]
    spawned domains. Every worker runs the same loop, claiming one job
    index at a time with [Atomic.fetch_and_add] on a shared counter;
    the worker count affects only scheduling, never the merged output.
    Job exceptions are caught per job.

    Outcomes flow to [sinks] through an ordered reassembly buffer. An
    outcome finishing out of order parks in the buffer until the
    frontier (the next job index to emit) reaches it. The buffer holds
    at most [window] outcomes (default [max 4 (2 * pool)], clamped to
    >= 1): a worker depositing beyond a full window blocks until the
    frontier advances — so one slow job bounds live memory at
    [window + workers] outcomes instead of the whole campaign. The
    deposit at the frontier index itself never blocks (everything below
    it has already been emitted), so the campaign cannot deadlock, for
    any window and worker count.

    The summary's [outcomes] keep label/result but drop the event
    buffers ([events = []]); [stream] carries the {!stream_stats}.
    Attach a sink (e.g. {!jsonl_buffer_sink}) to observe the trace.

    A job buffers its events oldest first in arrays of 256, small enough
    for the minor heap, and the outcome's [events] list is built at
    emission in one backward pass over them. Each event is numbered
    once where possible. A job claimed while its index is the frontier
    (every job, with one worker) gets a bus whose first event takes the
    campaign's current global [seq], read from an immutable (next index,
    next seq) pair that the reassembly publishes after each emission,
    without taking its lock; its events keep their numbers. A job
    claimed ahead of the frontier numbers from 0 and its events are
    shifted in the pass that builds the list. When no sink has
    [reads_events], no job attaches a listener: its bus only counts
    events.

    With a [cancel] token, {!cancel} stops the campaign at the next
    claim of each worker: the summary covers exactly the executed
    prefix (never dropping an already-emitted outcome),
    [stream.cancelled_jobs] counts the jobs never started, and a sink
    failure recorded before the cancel still resurfaces as the
    [Failure].

    With a live [metrics] registry (default {!Obs.Registry.null}) the
    pool records [campaign_jobs_total], [campaign_job_errors_total],
    the [campaign_job_seconds] runtime histogram, the
    [campaign_stream_window] gauge (outcomes currently parked; sample
    it concurrently to watch the window),
    [campaign_stream_emitted_total], [campaign_backpressure_waits_total]
    and the [campaign_backpressure_wait_seconds] histogram, and charges
    per-outcome sink emission to the [merge] stage timer. Workers
    record into per-domain cells and never serialize on a metrics lock;
    recording never affects verdicts, the merge order, or the trace
    JSONL. *)

(** {2 Streaming sinks} *)

val sink : ?reads_events:bool -> (outcome -> unit) -> sink
(** [sink f] calls [f] per outcome and does nothing on close.
    [reads_events] (default [true]) says whether [f] reads
    [outcome.events]; pass [false] for a sink that looks only at labels
    and results, so that a campaign of such sinks buffers no events. *)

val jsonl_buffer_sink : Buffer.t -> sink
(** Append every outcome's events as JSONL, one JSON object per line,
    into a buffer: the campaign's merged trace, byte-identical for any
    worker count. It reads events, as do the other JSONL sinks. Each
    JSONL sink renders through one {!Trace.writer} of its own and
    flushes it at the end of every outcome, so an outcome's lines have
    reached the buffer or file when [on_outcome] returns. *)

val jsonl_file_sink : string -> sink
(** Write every outcome's events as JSONL into a fresh file (truncates);
    the writer's block goes to the channel with [output], and
    [on_close] closes the file. *)

val sharded_jsonl_sink :
  ?metrics:Obs.Registry.t -> shards:int -> jobs:int -> string -> sink
(** Split the JSONL stream over [shards] files derived from the path
    (see {!shard_path}). Job [i] of [jobs] lands in shard
    [i * shards / jobs] — contiguous, balanced index ranges — so
    concatenating the shard files in shard order reproduces the merged
    stream byte for byte. All shard files are created (truncated) up
    front, so the artifact set is deterministic even when trailing
    shards stay empty. A live [metrics] registry counts per-shard
    flushes as [campaign_shard_flushes_total{shard="NNN"}].
    @raise Invalid_argument when [shards < 1]. *)

val shard_path : string -> shard:int -> string
(** ["out.jsonl" -> "out.000.jsonl"]; a path without an extension gets
    the shard suffix appended (["out" -> "out.000"]). *)

val shard_of_job : shards:int -> jobs:int -> int -> int
(** The shard index job [i] is routed to. *)

(** {2 Deterministic merge} *)

val results : summary -> Result.t list
(** Successful results, in job order. *)

val errors : summary -> (string * string) list
(** [(label, exception text)] of crashed jobs, in job order. *)

val verdicts : summary -> (string * string * Verdict.t) list
(** [(job label, property, verdict)] across all successful jobs, job
    order then registration order. *)

val overall : summary -> Verdict.t
(** {!Verdict.combine} over every property of every successful result. *)

(** {2 Merged counters} *)

val total_triggers : summary -> int
val total_time_units : summary -> int
val total_test_cases : summary -> int
val total_timeouts : summary -> int

val vt_seconds_sum : summary -> float
(** Sum of per-job verification times — the sequential-equivalent cost;
    compare with [wall_seconds] for the pool's speedup. *)
