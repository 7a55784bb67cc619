module Registry = Obs.Registry

type job = { label : string; run : Trace.t -> Result.t }

type outcome = {
  index : int;
  label : string;
  result : (Result.t, string) result;
  events : Trace.event list;
}

type stream_stats = {
  window : int;
  peak_window : int;
  emitted : int;
  backpressure_waits : int;
  backpressure_seconds : float;
  cancelled_jobs : int;
}

type summary = {
  outcomes : outcome list;
  workers : int;
  wall_seconds : float;
  stream : stream_stats;
}

type sink = {
  on_outcome : outcome -> unit;
  on_close : unit -> unit;
  reads_events : bool;
}

let job ~label run = { label; run }

(* Cooperative early stopping (the SMC sequential test's lever): a
   cancelled campaign stops claiming new jobs, so the executed set is
   always a contiguous prefix of the job list — every claimed job runs
   to completion, every executed outcome still reaches the reassembly
   frontier, and no deposit can wait on an index that was never
   started. *)
type cancellation = bool Atomic.t

let cancellation () = Atomic.make false
let cancel token = Atomic.set token true
let cancelled token = Atomic.get token

(* metric handles for one campaign run, resolved once before the pool
   spawns; recording from worker domains lands in per-domain cells, so
   the workers never serialize on a metrics lock *)
type meters = {
  metered : bool;
  m_jobs : Registry.Counter.t;
  m_errors : Registry.Counter.t;
  m_job_seconds : Registry.Timer.t;
  m_window : Registry.Gauge.t;
  m_emitted : Registry.Counter.t;
  m_bp_waits : Registry.Counter.t;
  m_bp_seconds : Registry.Timer.t;
  m_merge : Registry.Timer.t;
}

let make_meters metrics =
  {
    metered = Registry.enabled metrics;
    m_jobs =
      Registry.counter metrics "campaign_jobs_total"
        ~help:"campaign jobs executed (including crashed jobs)";
    m_errors =
      Registry.counter metrics "campaign_job_errors_total"
        ~help:"campaign jobs whose run raised";
    m_job_seconds =
      Registry.timer metrics "campaign_job_seconds"
        ~help:"wall-clock runtime of one campaign job";
    m_window =
      Registry.gauge metrics "campaign_stream_window"
        ~help:"outcomes currently parked in the streaming reassembly buffer";
    m_emitted =
      Registry.counter metrics "campaign_stream_emitted_total"
        ~help:"outcomes emitted to the streaming sinks, in job order";
    m_bp_waits =
      Registry.counter metrics "campaign_backpressure_waits_total"
        ~help:"deposits that had to wait for the reassembly window";
    m_bp_seconds =
      Registry.timer metrics "campaign_backpressure_wait_seconds"
        ~help:"per-deposit wait for a slot in the reassembly window";
    m_merge = Registry.stage_timer metrics Registry.Merge;
  }

(* The emission frontier as the reassembly publishes it after every
   emission: the next job index to emit and the campaign-global seq the
   first event of that job takes. The pair is immutable, so a claim
   reads it consistently with one [Atomic.get] and never waits on the
   reassembly lock, under which the sinks run. *)
type frontier = { next : int; seq : int }

(* A job's buffered events, oldest first, in fixed-size chunks: [full]
   holds the filled chunks newest first, [last] the chunk being filled,
   whose first [fill] slots are used. A chunk of [chunk_length] words
   fits the minor heap, and buffering an event costs one slot instead
   of a list cell. *)
type chunks = {
  mutable full : Trace.event array list;
  mutable last : Trace.event array;
  mutable fill : int;
}

let chunk_length = 256

let add_event chunks event =
  if chunks.fill = Array.length chunks.last then begin
    if chunks.fill > 0 then chunks.full <- chunks.last :: chunks.full;
    chunks.last <- Array.make chunk_length event;
    chunks.fill <- 0
  end;
  chunks.last.(chunks.fill) <- event;
  chunks.fill <- chunks.fill + 1

(* a finished job on its way to the frontier: its outcome, still
   without events, and the events its bus numbered from [first_seq] *)
type finished = { outcome : outcome; first_seq : int; chunks : chunks }

(* One job, on whatever domain runs it: a private bus, the job's
   exceptions confined to its outcome. With [buffer] (some sink reads
   events) a listener stores every event in [chunks]; without it the
   bus only counts. A job claimed at the frontier (with one worker,
   every job) starts its bus at the campaign-global seq, which no later
   emission can move before its own, so its events keep their numbers.
   A job claimed ahead of the frontier numbers from 0 and is shifted at
   emission. *)
let execute ~buffer ~frontier index job =
  let first_seq =
    let { next; seq } = Atomic.get frontier in
    if next = index then seq else 0
  in
  let bus = Trace.create ~first_seq () in
  let chunks = { full = []; last = [||]; fill = 0 } in
  if buffer then
    Trace.attach bus
      { Trace.on_event = add_event chunks; on_close = ignore };
  let result =
    match job.run bus with
    | result -> Ok result
    | exception exn -> Error (Printexc.to_string exn)
  in
  Trace.close bus;
  {
    outcome = { index; label = job.label; result; events = [] };
    first_seq;
    chunks;
  }

let metered_execute meters ~buffer ~frontier index job =
  if meters.metered then begin
    let started = Unix.gettimeofday () in
    let finished = execute ~buffer ~frontier index job in
    Registry.Timer.observe meters.m_job_seconds
      (Unix.gettimeofday () -. started);
    Registry.Counter.incr meters.m_jobs;
    (match finished.outcome.result with
    | Error _ -> Registry.Counter.incr meters.m_errors
    | Ok _ -> ());
    finished
  end
  else execute ~buffer ~frontier index job

(* Every worker, the calling domain included, runs the same loop: claim
   the next job index with one atomic increment, execute the job, hand
   the outcome to [deposit] (the ordered reassembly buffer below). A
   claim takes one job, so no worker ever holds a job that an idle one
   could run. [stop] is polled before every claim and every claimed
   index below [count] runs to completion, so the executed set is
   always a contiguous prefix of the job list. A job raising is
   confined by [execute]; the worker and the pool keep running. *)
let run_pool ~pool ~count ~stop ~execute ~deposit =
  let next = Atomic.make 0 in
  let rec work () =
    if not (stop ()) then begin
      let index = Atomic.fetch_and_add next 1 in
      if index < count then begin
        deposit (execute index);
        work ()
      end
    end
  in
  let spawned = List.init (pool - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned

(* --- ordered reassembly, bounded window ---------------------------------- *)

(* Finished jobs are handed to this buffer on whatever domain ran them;
   outcomes leave strictly in job order. The frontier's [next] is the
   next index to emit; an out-of-order outcome parks in [r_buffered]
   until the frontier reaches it. The buffer never holds more than
   [r_window] outcomes: a worker depositing beyond a full window waits
   on [r_wake] (backpressure), so one slow job bounds live memory at
   window + workers outcomes instead of the whole campaign. The deposit
   of the frontier index itself never waits — every index below it has
   already been emitted, so the campaign cannot deadlock. *)
type reassembly = {
  r_lock : Mutex.t;
  r_wake : Condition.t;
  r_buffered : (int, finished) Hashtbl.t;
  r_window : int;
  r_frontier : frontier Atomic.t; (* written only under [r_lock] *)
  mutable r_peak : int;
  mutable r_emitted : int;
  mutable r_waits : int;
  mutable r_wait_seconds : float;
  mutable r_sink_error : string option;
  r_slots : outcome option array; (* emitted outcomes, events dropped *)
}

let next reassembly = (Atomic.get reassembly.r_frontier).next

(* The outcome's [events] list, built in one backward pass over the
   chunks [execute] filled, numbered from [first_seq] on the job's bus;
   [seq] is the campaign-global seq the oldest of them takes. Returns
   the list, oldest first with campaign-global seq, and the seq after
   the newest. A bus that started at [seq] (a job claimed at the
   frontier) keeps its events as they are; any other's are shifted in
   the same pass, one copy of each event. *)
let renumber ~seq ~first_seq chunks =
  let shift = seq - first_seq in
  let rec cons_chunk chunk i events =
    if i < 0 then events
    else
      let (event : Trace.event) = chunk.(i) in
      let event =
        if shift = 0 then event else { event with seq = event.seq + shift }
      in
      cons_chunk chunk (i - 1) (event :: events)
  in
  let events =
    List.fold_left
      (fun events chunk -> cons_chunk chunk (chunk_length - 1) events)
      (cons_chunk chunks.last (chunks.fill - 1) [])
      chunks.full
  in
  (events, seq + (List.length chunks.full * chunk_length) + chunks.fill)

(* Emission runs under the reassembly lock: sinks are called serially,
   in ascending job order, with events numbered in the campaign-global
   sequence — the bytes a JSONL sink writes are the campaign's merged
   trace, whatever the worker count. A raising sink is disabled for
   the rest of the run (the error resurfaces after the pool joins); the
   frontier keeps advancing so no worker is left waiting. *)
let emit_locked reassembly meters sinks { outcome; first_seq; chunks } =
  let started =
    if meters.metered then Unix.gettimeofday () else 0.0
  in
  let events, seq =
    renumber ~seq:(Atomic.get reassembly.r_frontier).seq ~first_seq chunks
  in
  (if reassembly.r_sink_error = None then
     let delivered = { outcome with events } in
     try List.iter (fun sink -> sink.on_outcome delivered) sinks
     with exn -> reassembly.r_sink_error <- Some (Printexc.to_string exn));
  reassembly.r_slots.(outcome.index) <- Some outcome;
  reassembly.r_emitted <- reassembly.r_emitted + 1;
  Atomic.set reassembly.r_frontier { next = outcome.index + 1; seq };
  if meters.metered then begin
    Registry.Counter.incr meters.m_emitted;
    Registry.Timer.observe meters.m_merge (Unix.gettimeofday () -. started)
  end

let deposit reassembly meters sinks finished =
  let index = finished.outcome.index in
  Mutex.lock reassembly.r_lock;
  if
    index <> next reassembly
    && Hashtbl.length reassembly.r_buffered >= reassembly.r_window
  then begin
    let started = Unix.gettimeofday () in
    reassembly.r_waits <- reassembly.r_waits + 1;
    if meters.metered then Registry.Counter.incr meters.m_bp_waits;
    while
      index <> next reassembly
      && Hashtbl.length reassembly.r_buffered >= reassembly.r_window
    do
      Condition.wait reassembly.r_wake reassembly.r_lock
    done;
    let waited = Unix.gettimeofday () -. started in
    reassembly.r_wait_seconds <- reassembly.r_wait_seconds +. waited;
    if meters.metered then Registry.Timer.observe meters.m_bp_seconds waited
  end;
  if index = next reassembly then begin
    emit_locked reassembly meters sinks finished;
    let rec drain () =
      let next = next reassembly in
      match Hashtbl.find_opt reassembly.r_buffered next with
      | None -> ()
      | Some parked ->
        Hashtbl.remove reassembly.r_buffered next;
        emit_locked reassembly meters sinks parked;
        drain ()
    in
    drain ();
    if meters.metered then
      Registry.Gauge.set meters.m_window
        (float_of_int (Hashtbl.length reassembly.r_buffered));
    Condition.broadcast reassembly.r_wake
  end
  else begin
    Hashtbl.replace reassembly.r_buffered index finished;
    let parked = Hashtbl.length reassembly.r_buffered in
    if parked > reassembly.r_peak then reassembly.r_peak <- parked;
    if meters.metered then
      Registry.Gauge.set meters.m_window (float_of_int parked)
  end;
  Mutex.unlock reassembly.r_lock

let default_window ~pool = max 4 (2 * pool)

let run_stream ?(metrics = Registry.null) ?(workers = 1) ?window ?cancel
    ?(sinks = []) jobs =
  let meters = make_meters metrics in
  let started = Unix.gettimeofday () in
  let jobs = Array.of_list jobs in
  let count = Array.length jobs in
  let pool = max 1 (min workers count) in
  let window =
    match window with Some w -> max 1 w | None -> default_window ~pool
  in
  (* with no sink reading events, no job attaches a listener *)
  let buffer = List.exists (fun sink -> sink.reads_events) sinks in
  let reassembly =
    {
      r_lock = Mutex.create ();
      r_wake = Condition.create ();
      r_buffered = Hashtbl.create (window + 1);
      r_window = window;
      r_frontier = Atomic.make { next = 0; seq = 0 };
      r_peak = 0;
      r_emitted = 0;
      r_waits = 0;
      r_wait_seconds = 0.0;
      r_sink_error = None;
      r_slots = Array.make count None;
    }
  in
  run_pool ~pool ~count
    ~stop:
      (match cancel with
      | None -> fun () -> false
      | Some token -> fun () -> cancelled token)
    ~execute:(fun index ->
      metered_execute meters ~buffer ~frontier:reassembly.r_frontier index
        jobs.(index))
    ~deposit:(fun outcome -> deposit reassembly meters sinks outcome);
  List.iter
    (fun sink ->
      try sink.on_close ()
      with exn ->
        if reassembly.r_sink_error = None then
          reassembly.r_sink_error <- Some (Printexc.to_string exn))
    sinks;
  (* a sink failure must resurface before any structural invariant is
     checked: a cancelled-after-deciding campaign (the SMC early-stop
     path) would otherwise mask the sink's Failure behind an assert on
     the full-campaign emission count *)
  (match reassembly.r_sink_error with
  | Some message -> failwith ("Verif.Campaign.run_stream: sink failed: " ^ message)
  | None -> ());
  let executed = next reassembly in
  assert (reassembly.r_emitted = executed);
  assert (cancel <> None || executed = count);
  let outcomes =
    Array.to_list (Array.sub reassembly.r_slots 0 executed)
    |> List.map (function Some outcome -> outcome | None -> assert false)
  in
  {
    outcomes;
    workers = pool;
    wall_seconds = Unix.gettimeofday () -. started;
    stream =
      {
        window;
        peak_window = reassembly.r_peak;
        emitted = reassembly.r_emitted;
        backpressure_waits = reassembly.r_waits;
        backpressure_seconds = reassembly.r_wait_seconds;
        cancelled_jobs = count - executed;
      };
  }

(* --- streaming sinks ----------------------------------------------------- *)

let sink ?(reads_events = true) on_outcome =
  { on_outcome; on_close = ignore; reads_events }

let render_outcome buffer outcome =
  List.iter
    (fun event ->
      Trace.event_to_json_into buffer event;
      Buffer.add_char buffer '\n')
    outcome.events

let jsonl_buffer_sink out =
  { on_outcome = render_outcome out; on_close = (fun () -> ()); reads_events = true }

let jsonl_file_sink path =
  let channel = open_out_bin path in
  let buffer = Buffer.create 65536 in
  {
    on_outcome =
      (fun outcome ->
        Buffer.clear buffer;
        render_outcome buffer outcome;
        Buffer.output_buffer channel buffer);
    on_close = (fun () -> close_out channel);
    reads_events = true;
  }

let shard_path path ~shard =
  match Filename.extension path with
  | "" -> Printf.sprintf "%s.%03d" path shard
  | ext -> Printf.sprintf "%s.%03d%s" (Filename.remove_extension path) shard ext

(* Shards are contiguous, balanced job ranges: shard k of S holds jobs
   [k*J/S .. (k+1)*J/S), so concatenating the shard files in shard order
   reproduces the merged stream byte for byte. *)
let shard_of_job ~shards ~jobs index =
  if jobs <= 0 then 0 else min (shards - 1) (index * shards / jobs)

let sharded_jsonl_sink ?(metrics = Registry.null) ~shards ~jobs path =
  if shards < 1 then
    invalid_arg "Verif.Campaign.sharded_jsonl_sink: shards must be >= 1";
  (* every shard file is created (and truncated) up front, so the
     artifact set — and the concatenation order — is deterministic even
     when trailing shards stay empty *)
  let channels =
    Array.init shards (fun shard -> open_out_bin (shard_path path ~shard))
  in
  let flushes =
    Array.init shards (fun shard ->
        Registry.counter metrics "campaign_shard_flushes_total"
          ~labels:[ ("shard", Printf.sprintf "%03d" shard) ]
          ~help:"outcomes flushed into this campaign output shard")
  in
  let buffer = Buffer.create 65536 in
  {
    on_outcome =
      (fun outcome ->
        let shard = shard_of_job ~shards ~jobs outcome.index in
        Buffer.clear buffer;
        render_outcome buffer outcome;
        Buffer.output_buffer channels.(shard) buffer;
        Registry.Counter.incr flushes.(shard));
    on_close = (fun () -> Array.iter close_out channels);
    reads_events = true;
  }

(* --- deterministic merge, always in job order --------------------------- *)

let results summary =
  List.filter_map
    (fun o -> match o.result with Ok r -> Some r | Error _ -> None)
    summary.outcomes

let errors summary =
  List.filter_map
    (fun o ->
      match o.result with Error e -> Some (o.label, e) | Ok _ -> None)
    summary.outcomes

let verdicts summary =
  List.concat_map
    (fun o ->
      match o.result with
      | Error _ -> []
      | Ok r ->
        List.map
          (fun p -> (o.label, p.Result.property, p.Result.verdict))
          r.Result.properties)
    summary.outcomes

let overall summary =
  List.fold_left
    (fun acc r -> Verdict.combine acc (Result.overall r))
    Verdict.True (results summary)

let sum_over field summary =
  List.fold_left (fun acc r -> acc + field r) 0 (results summary)

let total_triggers = sum_over (fun r -> r.Result.triggers)
let total_time_units = sum_over (fun r -> r.Result.time_units)
let total_test_cases = sum_over Result.completed_cases
let total_timeouts = sum_over (fun r -> r.Result.timeouts)

let vt_seconds_sum summary =
  List.fold_left
    (fun acc r -> acc +. r.Result.vt_seconds)
    0.0 (results summary)
