(* The four campaign workloads and one round of each: the jobs of a
   Fig. 8-style campaign (or one SMC estimate), run through the
   program's public campaign entry points, with the benchmark timing
   its own calls from outside. *)

module Campaign = Verif.Campaign
module Harness = Eee.Harness
module Spec = Eee.Eee_spec
module Driver = Eee.Driver
module Row = Verif.Bench_log

type shape =
  | Jobs of { per_op : int; jsonl : bool }
      (** [per_op] jobs per operation; [jsonl] renders the trace *)
  | Smc of { eps : float; delta : float }
      (** one fixed-size Chernoff estimate per round *)

type t = {
  name : string;
  approach : int;
  ops : Spec.op list;
  plan : Harness.plan;  (** [seed] is set per run *)
  shape : shape;
}

let fault_rate = 0.03

let plan ~approach ~bound ~cases =
  {
    Harness.default_plan with
    Harness.approaches = [ approach ];
    cases_per_op = cases;
    bound;
    fault_rate;
  }

let all =
  [
    {
      name = "a2-tb2000-trace";
      approach = 2;
      ops = Spec.all_ops;
      plan = plan ~approach:2 ~bound:(Some 2000) ~cases:90;
      shape = Jobs { per_op = 2; jsonl = true };
    };
    {
      name = "a1-cpu";
      approach = 1;
      ops = Spec.all_ops;
      plan = plan ~approach:1 ~bound:None ~cases:45;
      shape = Jobs { per_op = 2; jsonl = false };
    };
    {
      name = "a2-tb10000";
      approach = 2;
      ops = Spec.all_ops;
      plan = plan ~approach:2 ~bound:(Some 10000) ~cases:1;
      shape = Jobs { per_op = 1; jsonl = false };
    };
    {
      name = "smc-write";
      approach = 2;
      ops = [ Spec.Write ];
      plan =
        {
          (plan ~approach:2 ~bound:(Some 50) ~cases:1) with
          Harness.faults = { Smc.Faults.none with Smc.Faults.power_loss = 0.4 };
          flash = Some (Harness.flash_quick_config ~fault_rate);
        };
      (* 2050 samples per round *)
      shape = Smc { eps = 0.03; delta = 0.05 };
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all

let round_size w =
  match w.shape with
  | Jobs { per_op; _ } -> per_op * List.length w.ops
  | Smc { eps; delta } -> Smc.Estimator.Chernoff.sample_count ~eps ~delta

(* Job [p] of round [r] runs op [p / per_op] as campaign job index
   [r * size + p], so every round draws fresh stimulus and round 0 is
   the campaign [index = op_i * K + j]. *)
let op_at w p = List.nth w.ops (p * List.length w.ops / round_size w)

let renders_jsonl w = match w.shape with Jobs { jsonl; _ } -> jsonl | Smc _ -> false

(* the traced twin of [Harness.smc_sample_job]: the same seeds, label
   and calls, with a span around each layer call *)
let traced_job w (plan : Harness.plan) spans p ~op ~index =
  let stream = Stimuli.Prng.of_seed_index ~seed:plan.seed ~index in
  let session_seed = Stimuli.Prng.bits stream in
  let driver_seed = Stimuli.Prng.bits stream in
  let label = Printf.sprintf "a%d/%s/#%d" w.approach (Spec.op_name op) index in
  Campaign.job ~label (fun trace ->
      let session =
        Spans.in_job spans p "session.boot" (fun () ->
            match w.approach with
            | 1 ->
              Harness.approach1 ~fault_rate:plan.fault_rate ?flash:plan.flash
                ~faults:plan.faults ~seed:session_seed ~trace ()
            | _ ->
              Harness.approach2 ~fault_rate:plan.fault_rate ?flash:plan.flash
                ~faults:plan.faults ~seed:session_seed ~backend:plan.backend
                ~trace ())
      in
      Spans.in_job spans p "eee.install" (fun () ->
          Driver.install_spec ~bound:plan.bound ~engine:plan.engine session
            [ op ]);
      Spans.in_job spans p "eee.run" (fun () ->
          Driver.run_campaign session
            {
              Driver.test_cases = plan.cases_per_op;
              watchdog_chunks = plan.watchdog_chunks;
              bound = plan.bound;
              engine = plan.engine;
              seed = driver_seed;
            }
            op))

(* --- set-up ------------------------------------------------------------ *)

(* The campaign's set-up: the first round's job list. Its first call
   forces the program form the workload's approach shares (parse, type
   check, then compile for approach 1 or derive for approach 2), which
   the program memoizes for the rest of the process, so only the first
   call in a process times the real set-up. *)
let cold_setup w ~seed =
  let plan = { w.plan with seed } in
  let (), span =
    Spans.time "setup" (fun () ->
        ignore
          (List.init (round_size w) (fun p ->
               Harness.smc_sample_job plan ~approach:w.approach ~op:(op_at w p) ~index:p)))
  in
  Spans.duration span

(* The layers behind the set-up, each called again from outside: the
   EEE software parsed, type-checked, compiled and derived, and the
   workload's properties parsed (which every job's spec install does). *)
let layer_probe w =
  let timed name f =
    let result, span = Spans.time name f in
    (result, (name, Spans.duration span))
  in
  let source = Eee.Eee_source.default () in
  let ast, parse = timed "minic.parse_s" (fun () -> Minic.C_parser.parse source) in
  let info, typecheck =
    timed "minic.typecheck_s" (fun () -> Minic.Typecheck.check ast)
  in
  let _, codegen = timed "compiler.codegen_s" (fun () -> Mcc.Codegen.compile info) in
  let _, derive = timed "esw.derive_s" (fun () -> Esw.C2sc.derive info) in
  let _, logic =
    timed "logic.parse_s" (fun () ->
        List.map
          (fun op -> Sctc.Prop.parse_exn (Spec.property_text ?bound:w.plan.bound op))
          w.ops)
  in
  [ parse; typecheck; codegen; derive; logic ]

(* --- one round ----------------------------------------------------------- *)

type round = {
  wall : float;
  durations : float array;  (** seconds per job, by position *)
  digest : (string * Row.value) list;
      (** the outputs checked for correctness; see [digest_of] *)
  heap_words : int;  (** the runtime's top heap after the call *)
  jobs : int;
  crashed : int;
  spans : Spans.round option;
  sample_events : Verif.Trace.event list;
      (** the first outcome's events, kept by round 0 of a traced run *)
}

let count_lines s =
  let rec go from n =
    match String.index_from_opt s from '\n' with
    | Some i -> go (i + 1) (n + 1)
    | None -> n
  in
  go 0 0

(* Verdict vector, merged counters, trace volume and SMC successes of a
   round. Round 0 of a traced run adds the trace's line count and MD5;
   every other field must equal the untraced round's. *)
let digest_of w ~outcomes ~events ~bytes ~successes ~fingerprint =
  let results =
    List.filter_map
      (fun (o : Campaign.outcome) -> Result.to_option o.result)
      outcomes
  in
  let sum field = List.fold_left (fun acc r -> acc + field r) 0 results in
  let verdicts = Buffer.create 4096 in
  List.iter
    (fun (o : Campaign.outcome) ->
      Buffer.add_string verdicts o.label;
      (match o.result with
      | Error _ -> Buffer.add_string verdicts " crashed"
      | Ok r ->
        List.iter
          (fun (p : Verif.Result.property) ->
            Printf.bprintf verdicts " %s=%s" p.property (Verdict.to_string p.verdict))
          r.Verif.Result.properties);
      Buffer.add_char verdicts '\n')
    outcomes;
  let int n = Row.Number (float_of_int n) in
  let jsonl = renders_jsonl w in
  [
    ("verdict_md5", Row.String (Digest.to_hex (Digest.string (Buffer.contents verdicts))));
    ("cases", int (sum Verif.Result.completed_cases));
    ("triggers", int (sum (fun r -> r.Verif.Result.triggers)));
    ("time_units", int (sum (fun r -> r.Verif.Result.time_units)));
    ("timeouts", int (sum (fun r -> r.Verif.Result.timeouts)));
    ("trace_events", int events);
  ]
  @ (if jsonl then [ ("trace_bytes", int bytes) ] else [])
  @ (match successes with Some s -> [ ("smc_successes", int s) ] | None -> [])
  @
  match fingerprint with
  | Some (lines, md5) when jsonl ->
    [ ("trace_lines", int lines); ("trace_md5", Row.String (Digest.to_hex md5)) ]
  | _ -> []

let run_round w ~seed ~round ~traced =
  let plan = { w.plan with seed } in
  let size = round_size w in
  let index_base = round * size in
  let spans = if traced then Some (Spans.round ~index_base ~jobs:size) else None in
  let starts = Array.make size 0.0 and stops = Array.make size 0.0 in
  let job p =
    let op = op_at w p and index = index_base + p in
    let inner =
      match spans with
      | Some spans -> traced_job w plan spans p ~op ~index
      | None -> Harness.smc_sample_job plan ~approach:w.approach ~op ~index
    in
    let run trace =
      starts.(p) <- Spans.now ();
      Fun.protect
        ~finally:(fun () -> stops.(p) <- Spans.now ())
        (fun () ->
          match spans with
          | Some spans -> Spans.in_job spans p "job" (fun () -> inner.run trace)
          | None -> inner.run trace)
    in
    { inner with Campaign.run }
  in
  (* the benchmark's sink: keeps each outcome's label and result, counts
     trace events, and reads and clears the JSONL buffer; round 0 of a
     traced run also fingerprints the trace and keeps one job's events
     for the rendering probe *)
  let fingerprint = traced && round = 0 in
  let jsonl = renders_jsonl w in
  let buffer = Buffer.create 65536 in
  let outcomes = ref [] and events = ref 0 and bytes = ref 0 in
  let lines = ref 0 and md5 = ref (Digest.string "") in
  let sample_events = ref None in
  let check (o : Campaign.outcome) =
    outcomes := { o with events = [] } :: !outcomes;
    events := !events + List.length o.events;
    if fingerprint && !sample_events = None then sample_events := Some o.events;
    if jsonl then begin
      bytes := !bytes + Buffer.length buffer;
      if fingerprint then begin
        let chunk = Buffer.contents buffer in
        lines := !lines + count_lines chunk;
        md5 := Digest.string (!md5 ^ Digest.string chunk)
      end;
      Buffer.clear buffer
    end
  in
  (* The first sink call of an outcome also records the campaign's
     hand-off since the job returned: collecting the job's buffered
     events and renumbering them. *)
  let traced_sink ~first name (sink : Campaign.sink) =
    match spans with
    | Some spans ->
      let on_outcome (o : Campaign.outcome) =
        if first then
          Spans.add_outside spans o.index
            { Spans.name = "campaign.merge"; start = stops.(o.index); stop = Spans.now () };
        Spans.in_sink spans o.index name (fun () -> sink.on_outcome o)
      in
      { sink with on_outcome }
    | None -> sink
  in
  let sinks =
    if jsonl then
      [
        traced_sink ~first:true "trace.emit" (Campaign.jsonl_buffer_sink buffer);
        traced_sink ~first:false "bench.check" (Campaign.sink check);
      ]
    else [ traced_sink ~first:true "bench.check" (Campaign.sink check) ]
  in
  let successes, call =
    Spans.time "campaign" (fun () ->
        match w.shape with
        | Jobs _ ->
          ignore (Campaign.run_stream ~sinks (List.init size job));
          None
        | Smc { eps; delta } ->
          let report =
            Smc.Runner.run ~sinks ~label:w.name
              ~job:(fun ~index -> job index)
              ~succeeded:Harness.smc_succeeded
              (Smc.Runner.Fixed { eps; delta })
          in
          Some report.Smc.Runner.successes)
  in
  Option.iter (fun (spans : Spans.round) -> spans.call <- call) spans;
  let outcomes = List.rev !outcomes in
  {
    wall = Spans.duration call;
    durations = Array.init size (fun p -> stops.(p) -. starts.(p));
    digest =
      digest_of w ~outcomes ~events:!events ~bytes:!bytes ~successes
        ~fingerprint:(if fingerprint then Some (!lines, !md5) else None);
    heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    jobs = List.length outcomes;
    crashed =
      List.length (List.filter (fun (o : Campaign.outcome) -> Result.is_error o.result) outcomes);
    spans;
    sample_events = Option.value ~default:[] !sample_events;
  }

let field round name =
  match List.assoc_opt name round.digest with Some (Row.Number n) -> n | _ -> 0.0

(* keys of [actual] that [reference] lacks or holds a different value for *)
let mismatches ~reference actual =
  List.filter_map
    (fun (key, value) ->
      match List.assoc_opt key reference with
      | Some expected when expected = value -> None
      | _ -> Some key)
    actual

(* --- probes -------------------------------------------------------------- *)

(* a cold explicit synthesis of each property under the auto engine's
   state cap; a property over the cap counts the states reached *)
let synth_probe w =
  List.fold_left
    (fun (seconds, states) op ->
      let formula = Sctc.Prop.parse_exn (Spec.property_text ?bound:w.plan.bound op) in
      let n, span =
        Spans.time "automata.synth" (fun () ->
            match
              Ar_automaton.synthesize ~max_states:Sctc.Engine.auto_max_states formula
            with
            | automaton -> Ar_automaton.num_states automaton
            | exception Ar_automaton.Too_large n -> n)
      in
      (seconds +. Spans.duration span, states + n))
    (0.0, 0) w.ops

(* host ns per time unit of a booted session with no properties: CPU
   cycles for approach 1, MiniC statements for approach 2 *)
let bare_ns_per_unit ~approach ~units =
  Stats.median
    (List.init 3 (fun _ ->
         let session =
           match approach with
           | 1 -> Harness.approach1 ~fault_rate ()
           | _ -> Harness.approach2 ~fault_rate ()
         in
         let before = Verif.Session.time_units session in
         let (), span = Spans.time "bare" (fun () -> Verif.Session.run ~bound:units session) in
         Spans.duration span *. 1e9
         /. float_of_int (max 1 (Verif.Session.time_units session - before))))

(* host ns to render one trace event as JSONL, over a job's own events *)
let render_ns_per_event events =
  let count = List.length events in
  if count = 0 then 0.0
  else begin
    let buffer = Buffer.create 65536 in
    let sink = Campaign.jsonl_buffer_sink buffer in
    let outcome = { Campaign.index = 0; label = ""; result = Error ""; events } in
    let started = Spans.now () in
    let reps = ref 0 in
    while Spans.now () -. started < 0.05 do
      Buffer.clear buffer;
      sink.on_outcome outcome;
      incr reps
    done;
    (Spans.now () -. started) *. 1e9 /. float_of_int (!reps * count)
  end
