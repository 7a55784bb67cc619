(* Benchmark harness: regenerates the paper's evaluation artifacts.

     dune exec bench/main.exe                 -- all tables, default scale
     dune exec bench/main.exe -- --table fig7
     dune exec bench/main.exe -- --table fig8 --scale 2
     dune exec bench/main.exe -- --no-micro   -- skip the Bechamel suite

   Fig. 7 -- the formal baselines (BLAST analog = predicate abstraction
   with refinement; CBMC analog = bounded model checking) on the seven
   EEELib operation properties, each with a per-tool time budget. The
   paper reports BLAST aborting with exceptions and CBMC stuck unwinding
   (> 5 h); here the analogous outcomes appear at laptop-scale budgets.

   Fig. 8 -- both simulation-based approaches on the same seven
   properties: approach 1 (microprocessor model, no time bound) and
   approach 2 (derived SystemC model) with two statement time bounds and
   without. Test-case counts and bounds are scaled from the paper's
   100000/1000000 test cases and 1000/100000 bounds; see EXPERIMENTS.md. *)

module Spec = Eee.Eee_spec
module Driver = Eee.Driver
module Harness = Eee.Harness
module Checker = Sctc.Checker
module Coverage = Sctc.Coverage
module Registry = Obs.Registry

let scale = ref 1
let fig7_timeout = ref 5.0
let table = ref "all"
let run_micro = ref true
let jobs = ref 4
let ci_mode = ref false

(* ------------------------------------------------------------------ *)
(* Fig. 7: BLAST-analog and CBMC-analog on the case-study properties   *)

let fig7_property op =
  (* response property over the closed analysis harness, as the paper's
     Spec-tool flow would state it *)
  let info = (Eee.Eee_program.analysis_derive ()).Esw.C2sc.model_info in
  let entry_id = Minic.Typecheck.func_id info (Spec.entry_function op) in
  let property = Sctc.Prop.parse_exn ~syntax:`Fltl "G (p_called -> F[40] p_done)" in
  let predicates =
    [
      ("p_called", Printf.sprintf "fname == %d" entry_id);
      ( "p_done",
        Printf.sprintf "eee_done_op == %d && eee_done_ret >= 0"
          (Spec.op_code op) );
    ]
  in
  Spec_inline.instrument ~property ~predicates info

let run_fig7 () =
  print_endline "=========================================================";
  Printf.printf
    "Fig. 7 -- formal software verification baselines (budget %.0fs/tool)\n"
    !fig7_timeout;
  print_endline "=========================================================";
  Printf.printf "%-10s | %-30s | %-30s\n" "" "BLAST analog (absref)"
    "CBMC analog (bmc)";
  Printf.printf "%-10s | %9s %-20s | %9s %-20s\n" "Property" "V.T.(s)"
    "Result" "V.T.(s)" "Result";
  Printf.printf "%s\n" (String.make 78 '-');
  List.iter
    (fun op ->
      let instrumented = fig7_property op in
      let blast =
        Absref.Cegar.check ~timeout_seconds:!fig7_timeout ~max_predicates:40
          ~max_art_nodes:40_000 instrumented
      in
      let blast_result =
        match blast.Absref.Cegar.result with
        | Absref.Cegar.Safe -> "safe"
        | Absref.Cegar.Bug _ -> "bug (poss. spurious)"
        | Absref.Cegar.Aborted _ -> "Exception"
        | Absref.Cegar.Unknown _ -> "Exception (no prog.)"
      in
      let cbmc =
        Bmc.check ~unwind:20 ~timeout_seconds:!fig7_timeout instrumented
      in
      let cbmc_result =
        match cbmc.Bmc.result with
        | Bmc.Safe { complete = true } -> "safe"
        | Bmc.Safe { complete = false } -> "safe up to bound"
        | Bmc.Unsafe _ -> "counterexample"
        | Bmc.Out_of_time -> "> budget (unwind)"
        | Bmc.Gave_up _ -> "> budget (blowup)"
      in
      Printf.printf "%-10s | %9.2f %-20s | %9.2f %-20s\n" (Spec.op_name op)
        blast.Absref.Cegar.seconds blast_result cbmc.Bmc.seconds cbmc_result)
    Spec.all_ops;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fig. 8: the two simulation-based approaches                         *)

type column = {
  col_name : string;
  approach : int;
  bound : int option;
  cases : int;
}

let fig8_columns () =
  [
    { col_name = "uP model, no TB"; approach = 1; bound = None;
      cases = 30 * !scale };
    { col_name = "ESW model, TB-2000"; approach = 2; bound = Some 2000;
      cases = 150 * !scale };
    { col_name = "ESW model, TB-10000"; approach = 2; bound = Some 10000;
      cases = 150 * !scale };
    { col_name = "ESW model, no TB"; approach = 2; bound = None;
      cases = 200 * !scale };
  ]

(* the paper's SCTC synthesizes explicit AR-automata: time bounds show up
   as AR generation time inside V.T.; every column is one campaign over
   the worker pool (--jobs) with per-op stimulus split from the seed *)
let column_plan column =
  {
    Harness.default_plan with
    Harness.ops = Spec.all_ops;
    approaches = [ column.approach ];
    cases_per_op = column.cases;
    bound = column.bound;
    engine = Checker.Explicit;
    fault_rate = 0.03;
    seed = 101 + !scale;
  }

let run_fig8_column column =
  Printf.printf "--- %s (%d test cases/op, %d workers) ---\n" column.col_name
    column.cases !jobs;
  Printf.printf "%-10s %9s %7s %7s %9s  %s\n" "Property" "V.T.(s)" "T.C."
    "C.(%)" "verdict" "missing returns";
  let summary = Harness.run_campaign ~workers:!jobs (column_plan column) in
  let total_time = ref 0.0 in
  List.iter2
    (fun op outcome ->
      match outcome.Verif.Campaign.result with
      | Error msg -> Printf.printf "%-10s  job failed: %s\n" (Spec.op_name op) msg
      | Ok result ->
        total_time := !total_time +. result.Verif.Result.vt_seconds;
        Printf.printf "%-10s %9.2f %7d %7.1f %9s  %s\n" (Spec.op_name op)
          result.Verif.Result.vt_seconds
          (Verif.Result.completed_cases result)
          (Verif.Result.coverage_percent result)
          (Verdict.to_string
             (Verif.Result.verdict result (Spec.property_name op)))
          (String.concat "," (Verif.Result.missing_returns result)))
    Spec.all_ops summary.Verif.Campaign.outcomes;
  Printf.printf "column total: %.2fs verification time, %.2fs wall\n\n"
    !total_time summary.Verif.Campaign.wall_seconds;
  !total_time

let run_fig8 () =
  print_endline "=========================================================";
  Printf.printf "Fig. 8 -- simulation-based approaches (scale %d)\n" !scale;
  print_endline "=========================================================";
  let columns = fig8_columns () in
  let times = List.map run_fig8_column columns in
  (* compare cost per test case (the paper's columns differ in T.C. too) *)
  match List.combine columns times with
  | (c1, t1) :: rest ->
    let per_case (c, t) = t /. float_of_int (c.cases * 7) in
    let a1 = per_case (c1, t1) in
    let best =
      List.fold_left (fun acc ct -> min acc (per_case ct)) a1 rest
    in
    if best > 0.0 then
      Printf.printf
        "verification time per test case: approach 1 = %.2f ms, best \
         approach-2 column = %.2f ms (speedup %.1fx)\n\n"
        (1000.0 *. a1) (1000.0 *. best) (a1 /. best)
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Parallel campaign: sequential vs pooled, recorded as a trajectory   *)

(* stamp bench rows with the source revision, so BENCH_campaign.json
   rows remain attributable as the trajectory grows; "-dirty" marks a
   tree with uncommitted changes, whose row measures code no commit
   holds yet *)
let git_rev =
  lazy
    (try
       let ic =
         Unix.open_process_in "git describe --always --dirty 2>/dev/null"
       in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

(* every row goes through [Verif.Bench_log.render], which places the
   uniform "table" tag first — the reader rejects untagged rows *)
let append_campaign_record ~table members =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_campaign.json"
  in
  output_string oc (Verif.Bench_log.render ~table members);
  output_char oc '\n';
  close_out oc

(* The last committed row of [table] measured under this OCaml version
   and dune profile: cost counts are exact for a given compiler and
   profile, so they gate against it with no tolerance. Read before this
   run appends its own row. *)
let last_row table =
  match Verif.Bench_log.load "BENCH_campaign.json" with
  | exception Sys_error _ -> None
  | Error msg -> failwith ("BENCH_campaign.json: " ^ msg)
  | Ok rows ->
    List.fold_left
      (fun last (row : Verif.Bench_log.row) ->
        if row.table = table
           && Verif.Bench_log.str_field row "ocaml_version"
              = Some Sys.ocaml_version
           && Verif.Bench_log.str_field row "dune_profile"
              = Some Build_profile.name
        then Some row
        else last)
      None rows

(* names the row a count gates against *)
let baseline_name =
  Printf.sprintf "last OCaml %s %s row" Sys.ocaml_version Build_profile.name

(* one campaign run with its trace rendered by the JSONL buffer sink *)
let traced_campaign ~workers plan =
  let buffer = Buffer.create 65536 in
  let summary =
    Harness.run_campaign ~workers
      ~sinks:[ Verif.Campaign.jsonl_buffer_sink buffer ]
      plan
  in
  (summary, Buffer.contents buffer)

let synth_seconds_sum summary =
  List.fold_left
    (fun acc r -> acc +. r.Verif.Result.synthesis_seconds)
    0.0
    (Verif.Campaign.results summary)

(* The exact allocation of one sequential campaign: minor words on the
   calling domain, which runs every job when there is one worker, with
   the JSONL sink attached, so every event is buffered, numbered and
   rendered. It is measured on a second run of the plan in the process:
   one-time costs (the first session's compile, AR-automaton fills,
   cons-table growth) depend on what else the process ran, and a repeat
   run repeats its count exactly. *)
type allocation = { words : int; jobs : int; events : int }

let sequential_allocation plan =
  let before = Gc.minor_words () in
  let summary, _ = traced_campaign ~workers:1 plan in
  let words = int_of_float (Gc.minor_words () -. before) in
  {
    words;
    jobs = List.length summary.Verif.Campaign.outcomes;
    events =
      List.fold_left
        (fun acc r -> acc + r.Verif.Result.trace_events)
        0
        (Verif.Campaign.results summary);
  }

let per words units = float_of_int words /. float_of_int (max 1 units)

(* neither minor words per job nor per trace event may rise above the
   last campaign row of this OCaml version and dune profile; both ratios
   are taken from the rows' exact integers *)
let allocation_gate baseline alloc =
  let recorded field =
    Option.bind baseline (fun row -> Verif.Bench_log.int_field row field)
  in
  let limit units_field =
    match recorded "seq_minor_words", recorded units_field with
    | Some words, Some units -> Some (per words units)
    | _ -> None
  in
  let gate name value limit =
    Printf.printf "  %-24s %14.2f  (gate: %s)\n" name value
      (match limit with
      | Some limit ->
        Printf.sprintf "<= %.2f, %s" limit baseline_name
      | None -> "none, this row is the baseline");
    match limit with Some limit -> value <= limit | None -> true
  in
  Printf.printf
    "sequential allocation: %d minor words over %d jobs and %d trace events\n"
    alloc.words alloc.jobs alloc.events;
  let job_ok =
    gate "minor_words_per_job" (per alloc.words alloc.jobs)
      (limit "seq_jobs")
  in
  let event_ok =
    gate "minor_words_per_event" (per alloc.words alloc.events)
      (limit "seq_trace_events")
  in
  job_ok && event_ok

(* One pooled run of [plan] against the recorded sequential baseline
   [(summary, jsonl)]: wall clock, per-stage times from a fresh lib/obs
   registry (simulate / check / synthesize / parse / merge), identity
   checks on verdicts and on the JSONL rendered by the buffer sink, and
   the cons-table contention counters of this run (deltas of the
   process-wide totals). Returns whether the round passes the CI gate:
   both identities hold. The speedup is printed and recorded, never
   gated: on a host with few cores it swings around 1.0 from run to run.
   That the pool runs jobs concurrently is checked by test_campaign's
   [one job per claim] case instead. *)
let campaign_round ~plan ~sequential:(sequential, sequential_jsonl) ~alloc
    ~cores jobs_n =
  let cons_before = Formula.cons_stats () in
  let metrics = Registry.create () in
  let pooled, pooled_jsonl =
    traced_campaign ~workers:jobs_n { plan with Harness.metrics }
  in
  let cons_after = Formula.cons_stats () in
  let verdicts_identical =
    Verif.Campaign.verdicts sequential = Verif.Campaign.verdicts pooled
  in
  let jsonl_identical = String.equal sequential_jsonl pooled_jsonl in
  let stream_stats = pooled.Verif.Campaign.stream in
  let stage name = Registry.sum_seconds metrics (Registry.stage_name name) in
  let speedup =
    if pooled.Verif.Campaign.wall_seconds > 0.0 then
      sequential.Verif.Campaign.wall_seconds
      /. pooled.Verif.Campaign.wall_seconds
    else 0.0
  in
  Printf.printf
    "jobs=%d: %.2fs wall (seq %.2fs, speedup %.2fx)  synth %.3fs  vt %.2fs\n"
    pooled.Verif.Campaign.workers pooled.Verif.Campaign.wall_seconds
    sequential.Verif.Campaign.wall_seconds speedup
    (synth_seconds_sum pooled)
    (Verif.Campaign.vt_seconds_sum pooled);
  Printf.printf
    "        cons: %d DLS hits, %d shard acquisitions (%d contended)\n"
    (cons_after.Formula.dls_hits - cons_before.Formula.dls_hits)
    (cons_after.Formula.shard_acquisitions
    - cons_before.Formula.shard_acquisitions)
    (cons_after.Formula.shard_contention - cons_before.Formula.shard_contention);
  Printf.printf
    "        stages (lib/obs): simulate %.2fs, check %.2fs, synth %.3fs, \
     parse %.3fs, merge %.3fs\n"
    (stage Registry.Simulate) (stage Registry.Check)
    (stage Registry.Synthesize) (stage Registry.Parse) (stage Registry.Merge);
  Printf.printf
    "        window %d (peak %d, %d waits)  verdicts identical: %b, merged \
     JSONL identical: %b\n"
    stream_stats.Verif.Campaign.window stream_stats.Verif.Campaign.peak_window
    stream_stats.Verif.Campaign.backpressure_waits verdicts_identical
    jsonl_identical;
  let module Json = Sctc.Trace.Json in
  append_campaign_record ~table:"campaign"
       [
         ("unix_time", Json.int (int_of_float (Unix.time ())));
         ("git_rev", Json.string (Lazy.force git_rev));
         ("scale", Json.int !scale);
         ("jobs", Json.int pooled.Verif.Campaign.workers);
         ("cores", Json.int cores);
         ("ocaml_version", Json.string Sys.ocaml_version);
         ("dune_profile", Json.string Build_profile.name);
         (* the parallel-speedup expectation only holds where the pool
            could actually parallelize; single-core rows record it as
            unexpected so trajectory readers skip them, as the gate does *)
         ("speedup_expected", Json.bool (cores >= 2 && jobs_n > 1));
         ("ops", Json.int (List.length plan.Harness.ops));
         ("cases_per_op", Json.int plan.Harness.cases_per_op);
         ("seq_seconds", Json.float sequential.Verif.Campaign.wall_seconds);
         ("par_seconds", Json.float pooled.Verif.Campaign.wall_seconds);
         ("speedup", Json.float speedup);
         ("synth_seconds", Json.float (synth_seconds_sum pooled));
         ("vt_seconds", Json.float (Verif.Campaign.vt_seconds_sum pooled));
         ("verdicts_identical", Json.bool verdicts_identical);
         ("jsonl_identical", Json.bool jsonl_identical);
         ( "cons_dls_hits",
           Json.int (cons_after.Formula.dls_hits - cons_before.Formula.dls_hits)
         );
         ( "cons_shard_acquisitions",
           Json.int
             (cons_after.Formula.shard_acquisitions
             - cons_before.Formula.shard_acquisitions) );
         ( "cons_shard_contention",
           Json.int
             (cons_after.Formula.shard_contention
             - cons_before.Formula.shard_contention) );
         ( "automaton_fills",
           Json.int (Registry.total metrics "sctc_automaton_fills_total") );
         ("stage_simulate_seconds", Json.float (stage Registry.Simulate));
         ("stage_check_seconds", Json.float (stage Registry.Check));
         ("stage_synthesize_seconds", Json.float (stage Registry.Synthesize));
         ("stage_parse_seconds", Json.float (stage Registry.Parse));
         ("stage_merge_seconds", Json.float (stage Registry.Merge));
         ( "check_triggers",
           Json.int (Registry.total metrics "sctc_triggers_total") );
         ("stream_window", Json.int stream_stats.Verif.Campaign.window);
         ( "stream_peak_window",
           Json.int stream_stats.Verif.Campaign.peak_window );
         ( "stream_backpressure_waits",
           Json.int stream_stats.Verif.Campaign.backpressure_waits );
         ("seq_minor_words", Json.int alloc.words);
         ("seq_jobs", Json.int alloc.jobs);
         ("seq_trace_events", Json.int alloc.events);
         ("minor_words_per_job", Json.float (per alloc.words alloc.jobs));
         ("minor_words_per_event", Json.float (per alloc.words alloc.events));
       ];
  verdicts_identical && jsonl_identical

(* The documented overhead budget of lib/obs: one pooled run with a live
   registry vs one with [Registry.null] at the same worker count. The
   gate allows 5% relative overhead with a 0.05s absolute floor, so
   timing noise on sub-second CI runs cannot flake the gate. *)
let run_overhead_check ~plan ~jobs_n =
  let run metrics =
    (Harness.run_campaign ~workers:jobs_n { plan with Harness.metrics })
      .Verif.Campaign.wall_seconds
  in
  (* best of two per configuration, interleaved (null, metered, null,
     metered): scheduler noise and allocator warm-up drift degrade one
     round, not both, so the delta reflects the instrumentation, not
     the box *)
  let rec rounds k (disabled, metered) =
    if k = 0 then (disabled, metered)
    else
      let disabled = min disabled (run Registry.null) in
      let metered = min metered (run (Registry.create ())) in
      rounds (k - 1) (disabled, metered)
  in
  let disabled, metered = rounds 2 (infinity, infinity) in
  let overhead = metered -. disabled in
  let relative = if disabled > 0.0 then overhead /. disabled else 0.0 in
  (* the absolute noise floor grows with the workload: timing jitter on
     a loaded runner is proportional to how long the rounds run *)
  let floor = 0.05 *. float_of_int !scale in
  let ok = overhead <= floor || relative <= 0.05 in
  Printf.printf
    "metrics overhead at jobs=%d: %.3fs metered vs %.3fs disabled (%+.1f%%) \
     -- %s (gate: <= 5%% or <= %.2fs)\n"
    jobs_n metered disabled (100.0 *. relative)
    (if ok then "ok" else "EXCEEDED")
    floor;
  ok

let run_campaign_bench () =
  let sweep = if !ci_mode then [ !jobs ] else [ 1; 2; 4; 7 ] in
  print_endline "=========================================================";
  Printf.printf
    "Parallel campaign -- Fig. 8-style rows, jobs sweep {%s}%s\n"
    (String.concat "," (List.map string_of_int sweep))
    (if !ci_mode then " (CI smoke)" else "");
  print_endline "=========================================================";
  let plan =
    {
      Harness.default_plan with
      Harness.ops = Spec.all_ops;
      approaches = [ 2 ];
      cases_per_op = 40 * !scale;
      bound = Some 2000;
      fault_rate = 0.03;
      seed = 13;
    }
  in
  let cores = Domain.recommended_domain_count () in
  let baseline = last_row "campaign" in
  let sequential = traced_campaign ~workers:1 plan in
  Printf.printf "%d ops x %d cases on %d core(s); sequential baseline %.2fs\n"
    (List.length plan.Harness.ops)
    plan.Harness.cases_per_op cores (fst sequential).Verif.Campaign.wall_seconds;
  let alloc = sequential_allocation plan in
  let alloc_ok = allocation_gate baseline alloc in
  let ok =
    List.fold_left
      (fun ok jobs_n ->
        campaign_round ~plan ~sequential ~alloc ~cores jobs_n && ok)
      true sweep
  in
  let overhead_ok =
    run_overhead_check ~plan ~jobs_n:(List.fold_left max 1 sweep)
  in
  Printf.printf "recorded in BENCH_campaign.json\n\n";
  ok && overhead_ok && alloc_ok

(* ------------------------------------------------------------------ *)
(* Checker trigger path: both engines, fills counted                   *)

(* The EEE property set over a synthetic steady-state stimulus: each
   operation is "called" on its own phase of a 97-tick cycle and
   answered with its first legal return code 5 ticks later, so every
   F[50] obligation is discharged in-window and no monitor ever
   settles — the steady-state trigger regime of a passing campaign. *)
let checker_bench_samplers tick =
  List.concat_map
    (fun op ->
      let index = Spec.op_code op - 1 in
      let called = 13 * index and answered = (13 * index) + 5 in
      (Spec.called_prop op, fun () -> !tick mod 97 = called)
      :: List.map
           (fun code ->
             ( Spec.return_prop op code,
               if code = List.hd (Spec.expected_returns op) then
                 fun () -> !tick mod 97 = answered
               else fun () -> false ))
           (Spec.expected_returns op))
    Spec.all_ops

let checker_property_texts =
  List.map
    (fun op -> (Spec.property_name op, Spec.property_text ~bound:50 op))
    Spec.all_ops

let time_triggers step count =
  let started = Unix.gettimeofday () in
  for _ = 1 to count do
    step ()
  done;
  Unix.gettimeofday () -. started

(* Best of three rounds of each timing thunk, rotating which one runs
   first, so a slow spell on a shared host does not land on one path
   alone. *)
let best_of_rounds timings =
  let n = Array.length timings in
  let best = Array.make n infinity in
  for round = 0 to 2 do
    for k = 0 to n - 1 do
      let i = (k + round) mod n in
      best.(i) <- Float.min best.(i) (timings.(i) ())
    done
  done;
  best

(* [f ()] and the table entries the calling domain filled while it ran *)
let counting_fills f =
  let before = Ar_automaton.fills () in
  let result = f () in
  (result, Ar_automaton.fills () - before)

let run_checker_bench () =
  print_endline "=========================================================";
  Printf.printf "Checker trigger path -- otf vs explicit (scale %d)\n" !scale;
  print_endline "=========================================================";
  let triggers = 200_000 * !scale in
  let warmup = 10_000 in
  let build_checker ?(texts = checker_property_texts) engine =
    let tick = ref 0 in
    let checker = Checker.create ~name:"bench" () in
    List.iter
      (fun (name, sampler) -> Checker.register_sampler checker name sampler)
      (checker_bench_samplers tick);
    List.iter
      (fun (name, text) -> Checker.add_property_text ~engine checker ~name text)
      texts;
    let step () =
      incr tick;
      Checker.step checker
    in
    (checker, step)
  in
  (* the reference: plain [Progression.step] folds over the same
     stimulus, one obligation per property *)
  let reference_tick = ref 0 in
  let reference_samplers = checker_bench_samplers reference_tick in
  let obligations =
    Array.of_list
      (List.map
         (fun (_, text) -> Sctc.Prop.parse_exn ~syntax:`Fltl text)
         checker_property_texts)
  in
  (* correctness first: every engine agrees with the reference on every
     verdict, per step *)
  let engine_checkers =
    List.map (fun engine -> build_checker engine) Sctc.Engine.all
  in
  let agree = ref true in
  for _ = 1 to 2_000 do
    incr reference_tick;
    let valuation name = (List.assoc name reference_samplers) () in
    Array.iteri
      (fun i obligation ->
        obligations.(i) <- Progression.step obligation valuation)
      obligations;
    let reference = Array.to_list (Array.map Progression.verdict obligations) in
    List.iter
      (fun (checker, step) ->
        step ();
        if List.map snd (Checker.verdicts checker) <> reference then
          agree := false)
      engine_checkers
  done;
  let plan_checker =
    match engine_checkers with (checker, _) :: _ -> checker | [] -> assert false
  in
  (* steady state: after the warm-up, a trigger takes only filled table
     entries, so the timed triggers of both engines fill nothing *)
  let _, otf_step = build_checker Checker.Otf in
  let _, explicit_step = build_checker Checker.Explicit in
  ignore (time_triggers otf_step warmup);
  ignore (time_triggers explicit_step warmup);
  let seconds, steady_fills =
    counting_fills (fun () ->
        best_of_rounds
          (Array.map
             (fun step () -> time_triggers step triggers)
             [| otf_step; explicit_step |]))
  in
  let tps seconds =
    if seconds > 0.0 then float_of_int triggers /. seconds else 0.0
  in
  let otf_tps = tps seconds.(0) and explicit_tps = tps seconds.(1) in
  (* fresh checkers, as campaign jobs build them, register Format at
     F[20000]: the first one on this domain fills the entries its run
     takes, and every later one, seeing the same stimulus, finds them
     filled *)
  let wide_texts =
    [
      ( Spec.property_name Spec.Format,
        Spec.property_text ~bound:20_000 Spec.Format );
    ]
  in
  let fresh_checkers = 50 * !scale and fresh_triggers = 20_000 in
  let fresh_checker () =
    let _, step = build_checker ~texts:wide_texts Checker.Otf in
    for _ = 1 to fresh_triggers do
      step ()
    done
  in
  let (), first_fills = counting_fills fresh_checker in
  let started = Unix.gettimeofday () in
  let (), later_fills =
    counting_fills (fun () ->
        for _ = 2 to fresh_checkers do
          fresh_checker ()
        done)
  in
  let fresh_seconds = Unix.gettimeofday () -. started in
  let fresh_tps =
    float_of_int ((fresh_checkers - 1) * fresh_triggers) /. fresh_seconds
  in
  Printf.printf "%d triggers, %d properties, %d propositions\n" triggers
    (List.length checker_property_texts)
    (List.length (Checker.proposition_names plan_checker));
  Printf.printf "  %-28s %12.0f triggers/s  (%.3fs)\n" "otf" otf_tps seconds.(0);
  Printf.printf "  %-28s %12.0f triggers/s  (%.3fs)\n" "explicit" explicit_tps
    seconds.(1);
  Printf.printf "  steady-state table fills: %d (gate: 0)\n" steady_fills;
  Printf.printf "  per-step verdicts identical to progression: %b\n" !agree;
  Printf.printf
    "fresh checkers: %d x %d triggers, Format at F[20000], otf\n"
    fresh_checkers fresh_triggers;
  Printf.printf "  first checker fills %d entries; the %d later ones fill %d \
                 (gate: 0)\n"
    first_fills (fresh_checkers - 1) later_fills;
  Printf.printf "  %-28s %12.0f triggers/s\n" "later checkers" fresh_tps;
  let module Json = Sctc.Trace.Json in
  append_campaign_record ~table:"checker"
       [
         ("unix_time", Json.int (int_of_float (Unix.time ())));
         ("git_rev", Json.string (Lazy.force git_rev));
         ("scale", Json.int !scale);
         ("triggers", Json.int triggers);
         ("properties", Json.int (List.length checker_property_texts));
         ( "propositions",
           Json.int (List.length (Checker.proposition_names plan_checker)) );
         ("plan_tps", Json.float otf_tps);
         ("explicit_tps", Json.float explicit_tps);
         ("steady_fills", Json.int steady_fills);
         ("fresh_checkers", Json.int fresh_checkers);
         ("fresh_first_fills", Json.int first_fills);
         ("fresh_later_fills", Json.int later_fills);
         ("fresh_tps", Json.float fresh_tps);
         ("verdicts_identical", Json.bool !agree);
       ];
  Printf.printf "recorded in BENCH_campaign.json\n\n";
  (* the CI gate: exact counts, no wall-clock floor: verdicts agree with
     plain progression, steady-state triggers fill no entry, and fresh
     checkers after the first on a domain fill no entry *)
  !agree && steady_fills = 0 && later_fills = 0

(* ------------------------------------------------------------------ *)
(* Simulate: the bytecode VM on the EEE model, and the kernel's cost   *)
(* per time unit of a booted session                                   *)

(* Raw VM throughput on the derived EEE software model: per round,
   repeated fixed-fuel runs with the default hooks (fully deterministic)
   until [target] statements have been executed; the best of three
   rounds is reported, so a loaded runner does not lower the figure by
   chance. Also returns the minor words of one such run, which are exact
   for a given input and binary. *)
let vm_throughput ~target =
  let info = (Eee.Eee_program.derive ()).Esw.C2sc.model_info in
  let vm = Minic.Vm.create info in
  let hooks = Minic.Vm.default_hooks () in
  (* warm-up: touch the code path (and the VM's frames) before timing *)
  ignore (Minic.Vm.run ~fuel:20_000 vm hooks ~entry:"main");
  Minic.Vm.reset vm;
  let before = Gc.minor_words () in
  ignore (Minic.Vm.run ~fuel:target vm hooks ~entry:"main");
  let words = int_of_float (Gc.minor_words () -. before) in
  let round () =
    let statements = ref 0 and seconds = ref 0.0 in
    while !statements < target do
      Minic.Vm.reset vm;
      let started = Unix.gettimeofday () in
      ignore (Minic.Vm.run ~fuel:target vm hooks ~entry:"main");
      seconds := !seconds +. (Unix.gettimeofday () -. started);
      statements := !statements + Minic.Vm.statements_executed vm
    done;
    (!statements, !seconds)
  in
  let best =
    List.fold_left
      (fun acc () ->
        let statements, seconds = round () in
        match acc with
        | Some (st, s) when float_of_int st /. s
                            >= float_of_int statements /. seconds ->
          acc
        | _ -> Some (statements, seconds))
      None
      [ (); (); () ]
  in
  let statements, seconds = Option.get best in
  (statements, seconds, words)

(* Host cost of a time unit on a booted session with no properties:
   [Session.run] over [units] CPU cycles (approach 1) or MiniC statements
   (approach 2), so the kernel's scheduling is most of what runs. The
   first run pays the process's one-time costs; the minor words of the
   second, on a fresh session, are exact for a given binary. Returns the
   time units run, those words, and the best ns per unit of three runs. *)
let kernel_cost ~units make =
  let run () =
    let session = make () in
    let first = Verif.Session.time_units session in
    let before = Gc.minor_words () in
    let started = Unix.gettimeofday () in
    Verif.Session.run ~bound:units session;
    let seconds = Unix.gettimeofday () -. started in
    let words = int_of_float (Gc.minor_words () -. before) in
    (Verif.Session.time_units session - first, words, seconds)
  in
  ignore (run ());
  let ran, words, seconds = run () in
  let best =
    List.fold_left (fun best (_, _, s) -> Float.min best s) seconds
      [ run (); run () ]
  in
  (ran, words, best *. 1e9 /. float_of_int ran)

let run_simulate_bench () =
  print_endline "=========================================================";
  Printf.printf "Simulate -- the bytecode VM on the EEE model (scale %d)\n"
    !scale;
  print_endline "=========================================================";
  let target = 2_000_000 * !scale in
  let baseline = last_row "simulate" in
  let vm_statements, vm_seconds, vm_words = vm_throughput ~target in
  let vm_sps =
    if vm_seconds > 0.0 then float_of_int vm_statements /. vm_seconds else 0.0
  in
  Printf.printf "  %-28s %12.0f statements/s  (%d statements, %.3fs)\n"
    "bytecode VM" vm_sps vm_statements vm_seconds;
  (* deterministic cost counts: the VM's allocation over one fixed-fuel
     run and the size of the compiled EEE model *)
  let bytecode_length =
    Array.length
      (Minic.Compile.compile (Eee.Eee_program.derive ()).Esw.C2sc.model_info)
        .Minic.Bytecode.code
  in
  let gate field count =
    let limit =
      Option.bind baseline (fun row -> Verif.Bench_log.int_field row field)
    in
    Printf.printf "  %-28s %12d  (gate: %s)\n" field count
      (match limit with
      | Some limit ->
        Printf.sprintf "<= %d, %s" limit baseline_name
      | None -> "none, this row is the baseline");
    match limit with Some limit -> count <= limit | None -> true
  in
  let words_ok = gate "vm_minor_words" vm_words in
  let length_ok = gate "bytecode_length" bytecode_length in
  let a1_cycles, a1_words, a1_ns =
    kernel_cost ~units:200_000 (fun () -> Harness.approach1 ())
  in
  let a2_statements, a2_words, a2_ns =
    kernel_cost ~units:400_000 (fun () -> Harness.approach2 ())
  in
  Printf.printf
    "  booted session, no properties: approach 1 %d cycles at %.0f ns, \
     approach 2 %d statements at %.0f ns\n"
    a1_cycles a1_ns a2_statements a2_ns;
  let a1_ok = gate "a1_minor_words" a1_words in
  let a2_ok = gate "a2_minor_words" a2_words in
  let cores = Domain.recommended_domain_count () in
  let module Json = Sctc.Trace.Json in
  append_campaign_record ~table:"simulate"
       [
         ("unix_time", Json.int (int_of_float (Unix.time ())));
         ("git_rev", Json.string (Lazy.force git_rev));
         ("scale", Json.int !scale);
         ("jobs", Json.int 1);
         ("cores", Json.int cores);
         ("ocaml_version", Json.string Sys.ocaml_version);
         ("dune_profile", Json.string Build_profile.name);
         ("target_statements", Json.int target);
         ("vm_statements", Json.int vm_statements);
         ("vm_seconds", Json.float vm_seconds);
         ("vm_sps", Json.float vm_sps);
         ("vm_minor_words", Json.int vm_words);
         ("bytecode_length", Json.int bytecode_length);
         ("a1_cycles", Json.int a1_cycles);
         ("a1_minor_words", Json.int a1_words);
         ("a1_ns_per_cycle", Json.float a1_ns);
         ("a2_statements", Json.int a2_statements);
         ("a2_minor_words", Json.int a2_words);
         ("a2_ns_per_statement", Json.float a2_ns);
       ];
  Printf.printf "recorded in BENCH_campaign.json\n\n";
  (* the CI gate: no exact cost count may rise above the last row of
     this OCaml version and dune profile; the statements per second and
     the ns per time unit are wall-clock and only reported *)
  words_ok && length_ok && a1_ok && a2_ok

(* ------------------------------------------------------------------ *)
(* SMC: Wald's sequential test vs the fixed-size Chernoff bound        *)

type smc_scenario = {
  smc_name : string;
  smc_op : Spec.op;
  smc_bound : int option;
  smc_faults : Smc.Faults.t;
  smc_spec : Smc.Runner.spec;
}

(* three probability regimes over the fault-injected EEE software: a
   clear pass (p near 1), a clear fail (tight bound, heavy torn writes)
   and a fixed-size estimation of the same failing scenario — the row
   the SPRT's sample count is compared against *)
let smc_scenarios =
  [
    {
      smc_name = "read/h0";
      smc_op = Spec.Read;
      smc_bound = None;
      smc_faults =
        { Smc.Faults.none with Smc.Faults.decay = 0.0005; power_loss = 0.05 };
      smc_spec =
        Smc.Runner.Sequential
          { theta = 0.5; delta = 0.1; alpha = 0.05; beta = 0.05;
            max_samples = None };
    };
    {
      smc_name = "write-tb50/h1";
      smc_op = Spec.Write;
      smc_bound = Some 50;
      smc_faults = { Smc.Faults.none with Smc.Faults.power_loss = 0.4 };
      smc_spec =
        Smc.Runner.Sequential
          { theta = 0.8; delta = 0.05; alpha = 0.05; beta = 0.05;
            max_samples = None };
    };
    {
      smc_name = "write-tb50/est";
      smc_op = Spec.Write;
      smc_bound = Some 50;
      smc_faults = { Smc.Faults.none with Smc.Faults.power_loss = 0.4 };
      smc_spec = Smc.Runner.Fixed { eps = 0.15; delta = 0.2 };
    };
  ]

let run_smc_scenario scenario =
  let plan =
    {
      Harness.default_plan with
      Harness.ops = [ scenario.smc_op ];
      approaches = [ 2 ];
      cases_per_op = 1;
      bound = scenario.smc_bound;
      fault_rate = 0.02;
      faults = scenario.smc_faults;
      flash = Some (Harness.flash_quick_config ~fault_rate:0.02);
      seed = 23 + !scale;
    }
  in
  let report =
    Smc.Runner.run ~workers:!jobs ~label:scenario.smc_name
      ~job:(fun ~index ->
        Harness.smc_sample_job plan ~approach:2 ~op:scenario.smc_op ~index)
      ~succeeded:(Harness.smc_succeeded ?prop:None)
      scenario.smc_spec
  in
  let cancelled = report.Smc.Runner.stream.Verif.Campaign.cancelled_jobs in
  Printf.printf "  %-16s %-8s %9s %8d %9d %7d %8.4f %7.2fs%s\n"
    scenario.smc_name
    (Spec.op_name scenario.smc_op)
    (Format.asprintf "%a" Smc.Runner.pp_decision report.Smc.Runner.decision)
    report.Smc.Runner.samples report.Smc.Runner.chernoff_n cancelled
    report.Smc.Runner.p_hat report.Smc.Runner.wall_seconds
    (if report.Smc.Runner.forced then "  (forced)" else "");
  let module Json = Sctc.Trace.Json in
  let theta, delta, alpha, beta, eps =
    match scenario.smc_spec with
    | Smc.Runner.Sequential { theta; delta; alpha; beta; _ } ->
      (theta, delta, alpha, beta, 0.0)
    | Smc.Runner.Fixed { eps; delta } -> (0.0, delta, 0.0, 0.0, eps)
  in
  append_campaign_record ~table:"smc"
    [
      ("unix_time", Json.int (int_of_float (Unix.time ())));
      ("git_rev", Json.string (Lazy.force git_rev));
      ("scale", Json.int !scale);
      ("jobs", Json.int !jobs);
      ("scenario", Json.string scenario.smc_name);
      ("op", Json.string (Spec.op_name scenario.smc_op));
      ( "bound",
        match scenario.smc_bound with
        | Some b -> Json.int b
        | None -> Json.int 0 );
      ("faults", Json.string (Smc.Faults.to_string scenario.smc_faults));
      ("theta", Json.float theta);
      ("delta", Json.float delta);
      ("alpha", Json.float alpha);
      ("beta", Json.float beta);
      ("eps", Json.float eps);
      ( "decision",
        Json.string
          (Format.asprintf "%a" Smc.Runner.pp_decision
             report.Smc.Runner.decision) );
      ("samples", Json.int report.Smc.Runner.samples);
      ("successes", Json.int report.Smc.Runner.successes);
      ("p_hat", Json.float report.Smc.Runner.p_hat);
      ("chernoff_n", Json.int report.Smc.Runner.chernoff_n);
      ("cancelled_jobs", Json.int cancelled);
      ("forced", Json.bool report.Smc.Runner.forced);
      ("early_stopped", Json.bool report.Smc.Runner.early_stopped);
      ("errors", Json.int (List.length report.Smc.Runner.errors));
      ("wall_seconds", Json.float report.Smc.Runner.wall_seconds);
    ];
  match scenario.smc_spec with
  | Smc.Runner.Fixed _ ->
    (* estimation rows have no early-stop expectation; only crash-free *)
    report.Smc.Runner.errors = []
  | Smc.Runner.Sequential _ ->
    (* the CI gate: the sequential test must reach a real (un-forced)
       decision in strictly fewer samples than the fixed-size bound the
       same guarantees would cost, with no crashed samples *)
    report.Smc.Runner.decision <> Smc.Runner.Estimate
    && (not report.Smc.Runner.forced)
    && report.Smc.Runner.samples < report.Smc.Runner.chernoff_n
    && report.Smc.Runner.errors = []

let run_smc_bench () =
  print_endline "=========================================================";
  Printf.printf
    "SMC -- Wald SPRT vs fixed-size Chernoff bound (%d workers)\n" !jobs;
  print_endline "=========================================================";
  Printf.printf "  %-16s %-8s %9s %8s %9s %7s %8s %8s\n" "scenario" "op"
    "decision" "samples" "chernoff" "saved" "p_hat" "wall";
  let ok =
    List.fold_left
      (fun ok scenario -> run_smc_scenario scenario && ok)
      true smc_scenarios
  in
  Printf.printf "recorded in BENCH_campaign.json\n\n";
  ok

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let run_ablation () =
  print_endline "=========================================================";
  print_endline "Ablation -- AR engines: explicit synthesis vs on-the-fly";
  print_endline "=========================================================";
  Printf.printf "%-7s %-12s %10s %10s %8s\n" "bound" "engine" "synth(s)"
    "run(s)" "states";
  let steps = 100_000 in
  List.iter
    (fun bound ->
      List.iter
        (fun (engine_name, engine) ->
          let value = ref 0 in
          let checker = Checker.create ~name:"ablation" () in
          Checker.register_sampler checker "req" (fun () -> !value mod 97 = 1);
          Checker.register_sampler checker "ack" (fun () -> !value mod 97 = 9);
          let t0 = Unix.gettimeofday () in
          Checker.add_property_text ~engine checker ~name:"p"
            (Printf.sprintf "G (req -> F[%d] ack)" bound);
          let t1 = Unix.gettimeofday () in
          for _ = 1 to steps do
            incr value;
            Checker.step checker
          done;
          let t2 = Unix.gettimeofday () in
          let states =
            match engine with
            | Checker.Otf -> "-"
            | Checker.Explicit ->
              string_of_int
                (Ar_automaton.num_states
                   (Ar_automaton.synthesize
                      (Sctc.Prop.parse_exn ~syntax:`Fltl
                         (Printf.sprintf "G (req -> F[%d] ack)" bound))))
          in
          Printf.printf "%-7d %-12s %10.3f %10.3f %8s\n" bound engine_name
            (t1 -. t0) (t2 -. t1) states)
        [ ("on-the-fly", Checker.Otf); ("explicit", Checker.Explicit) ])
    [ 100; 2000; 20000 ];
  print_newline ();
  print_endline "Ablation -- checker triggers per operation (Read, 20 cases)";
  List.iter
    (fun (name, session) ->
      Driver.install_spec session [ Spec.Read ];
      let config = { Driver.default_config with test_cases = 20; seed = 3 } in
      let outcome = Driver.run_campaign session config Spec.Read in
      Printf.printf "  %-12s %8d time units, %8d checker steps, %.3fs\n" name
        outcome.Verif.Result.time_units outcome.Verif.Result.triggers
        outcome.Verif.Result.vt_seconds)
    [
      ("approach 1", Harness.approach1 ~fault_rate:0.0 ~seed:9 ());
      ("approach 2", Harness.approach2 ~fault_rate:0.0 ~seed:9 ());
    ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let micro_tests () =
  let open Bechamel in
  let kernel_bench =
    let kernel = Sim.Kernel.create () in
    let counter = ref 0 in
    Sim.Kernel.spawn_timed kernel (fun () ->
        incr counter;
        1);
    let horizon = ref 0 in
    Test.make ~name:"sim: timed wait roundtrip"
      (Staged.stage (fun () ->
           horizon := !horizon + 1;
           Sim.Kernel.run ~max_time:!horizon kernel))
  in
  let progression_bench =
    let formula = Sctc.Prop.parse_exn ~syntax:`Fltl "G (a -> F[100] b)" in
    let state = ref formula in
    let flip = ref false in
    Test.make ~name:"automata: progression step"
      (Staged.stage (fun () ->
           flip := not !flip;
           let v name = if String.equal name "a" then !flip else false in
           state := Progression.step !state v;
           if Verdict.is_final (Progression.verdict !state) then
             state := formula))
  in
  let monitor_bench =
    let automaton =
      Ar_automaton.synthesize (Sctc.Prop.parse_exn ~syntax:`Fltl "G (a -> F[100] b)")
    in
    (* support [a; b]: slot 0 toggles, b stays false *)
    let samples = [| false; false |] and map = [| 0; 1 |] in
    let monitor = Monitor.of_automaton automaton in
    Test.make ~name:"automata: explicit monitor step"
      (Staged.stage (fun () ->
           samples.(0) <- not samples.(0);
           ignore (Monitor.step_indexed monitor ~samples ~map)))
  in
  let cpu_bench =
    let bus = Cpu.Bus.create () in
    let ram = Cpu.Ram.create ~name:"r" ~base:0 ~size:1024 in
    Cpu.Bus.attach bus (Cpu.Ram.device ram);
    Cpu.Ram.load ram 0
      (Cpu.Asm.assemble_words
         "start: addi r4, r4, 1\n sw r4, 512(r0)\n lw r5, 512(r0)\n jal r0, start");
    let core = Cpu.Cpu_core.create bus ~start_pc:0 () in
    Test.make ~name:"cpu: instruction"
      (Staged.stage (fun () -> Cpu.Cpu_core.step core))
  in
  let fm_bench =
    let x = Absref.Linexpr.var "x" and y = Absref.Linexpr.var "y" in
    let hyps =
      [ Absref.Linexpr.sub x y; Absref.Linexpr.sub y (Absref.Linexpr.const 3) ]
    in
    let goal = Absref.Linexpr.sub x (Absref.Linexpr.const 5) in
    Test.make ~name:"absref: FM entailment"
      (Staged.stage (fun () ->
           ignore (Absref.Fourier_motzkin.entails hyps goal)))
  in
  let sat_bench =
    let var i h = (3 * i) + h + 1 in
    let clauses = ref [] in
    for i = 0 to 3 do
      clauses := [| var i 0; var i 1; var i 2 |] :: !clauses
    done;
    for h = 0 to 2 do
      for i = 0 to 3 do
        for j = i + 1 to 3 do
          clauses := [| -var i h; -var j h |] :: !clauses
        done
      done
    done;
    let clauses = !clauses in
    Test.make ~name:"bmc: CDCL pigeonhole(4,3)"
      (Staged.stage (fun () -> ignore (Sat.solve ~num_vars:12 clauses)))
  in
  let vm_bench =
    let info =
      Minic.Typecheck.check
        (Minic.C_parser.parse
           "int g; int main(void) { int i; for (i = 0; i < 100; i++) { g += i; } return g; }")
    in
    Test.make ~name:"minic: VM 100-iter loop"
      (Staged.stage (fun () ->
           let vm = Minic.Vm.create info in
           ignore (Minic.Vm.run vm (Minic.Vm.default_hooks ()) ~entry:"main")))
  in
  [
    kernel_bench; progression_bench; monitor_bench; cpu_bench; fm_bench;
    sat_bench; vm_bench;
  ]

let run_micro_suite () =
  print_endline "=========================================================";
  print_endline "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  print_endline "=========================================================";
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ nanoseconds ] ->
            Printf.printf "  %-38s %12.1f ns/run\n" name nanoseconds
          | _ -> Printf.printf "  %-38s (no estimate)\n" name)
        analyzed)
    (micro_tests ());
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--table" :: value :: rest ->
      table := value;
      parse rest
    | "--scale" :: value :: rest ->
      scale := max 1 (int_of_string value);
      parse rest
    | "--timeout" :: value :: rest ->
      fig7_timeout := float_of_string value;
      parse rest
    | "--no-micro" :: rest ->
      run_micro := false;
      parse rest
    | "--jobs" :: value :: rest ->
      jobs := max 1 (int_of_string value);
      parse rest
    | "--ci" :: rest ->
      ci_mode := true;
      parse rest
    | _ :: rest -> parse rest
  in
  parse (List.tl args);
  Printf.printf
    "Reproduction harness -- Lettnin et al., DATE 2008 (scale %d)\n\n" !scale;
  let campaign_ok = ref true in
  (match !table with
  | "fig7" -> run_fig7 ()
  | "fig8" -> run_fig8 ()
  | "campaign" -> campaign_ok := run_campaign_bench ()
  | "checker" -> campaign_ok := run_checker_bench ()
  | "simulate" -> campaign_ok := run_simulate_bench ()
  | "smc" -> campaign_ok := run_smc_bench ()
  | "ablation" -> run_ablation ()
  | "micro" -> run_micro_suite ()
  | _ ->
    run_fig7 ();
    run_fig8 ();
    campaign_ok := run_campaign_bench ();
    let checker_ok = run_checker_bench () in
    let simulate_ok = run_simulate_bench () in
    let smc_ok = run_smc_bench () in
    campaign_ok := !campaign_ok && checker_ok && simulate_ok && smc_ok;
    run_ablation ();
    if !run_micro then run_micro_suite ());
  print_endline "done.";
  (* the CI smoke variant turns a broken determinism contract, or an
     exceeded allocation or metering budget, into a failing exit code *)
  if !ci_mode && not !campaign_ok then exit 1
