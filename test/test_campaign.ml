(* The parallel-campaign safety net: a campaign on a domain pool must be
   verdict-for-verdict — and byte-for-byte in its merged trace — identical
   to the sequential run, a crashing job must surface as a per-job error
   without poisoning the pool, and the seed-splitting PRNG contract must
   hold (bit-reproducible streams, non-overlapping prefixes). *)

module Campaign = Verif.Campaign
module Session = Verif.Session
module Result = Verif.Result
module Trace = Verif.Trace
module Prng = Stimuli.Prng

(* ---- a cheap deterministic job mix over the small counter program ------ *)

let source =
  {|
    int flag;
    int x;
    int finished;

    void main(void) {
      int i;
      flag = 1;
      for (i = 0; i < 8; i = i + 1) {
        x = x + 1;
      }
      finished = 1;
    }
  |}

let program_info = lazy (Minic.Typecheck.check (Minic.C_parser.parse source))

let session_job ~label ~backend ~properties =
  Campaign.job ~label (fun trace ->
      let config =
        {
          Session.default_config with
          Session.session_name = label;
          propositions =
            [ ("p_done", "finished == 1"); ("p_overflow", "x > 100") ];
          properties;
          bound = Some 100_000;
          flag = (match backend with Session.Soc_model -> Some "flag" | _ -> None);
          trace;
        }
      in
      let session =
        Session.create ~info:(Lazy.force program_info) config backend
      in
      Session.boot session;
      Session.run session;
      Session.result session)

(* several properties x backends: a representative job mix (the Soc job is
   the expensive one, so the completion order under a pool differs from
   the job order — exactly what the deterministic merge must hide) *)
let make_jobs () =
  [
    session_job ~label:"esw/done" ~backend:Session.Derived_model
      ~properties:[ ("eventually_done", "F p_done") ];
    session_job ~label:"soc/safety" ~backend:Session.Soc_model
      ~properties:
        [ ("never_overflow", "G !p_overflow"); ("not_yet_done", "G !p_done") ];
    session_job ~label:"esw/eventually" ~backend:Session.Derived_model
      ~properties:[ ("eventually_done", "F p_done") ];
    session_job ~label:"esw/safety" ~backend:Session.Derived_model
      ~properties:[ ("not_yet_done", "G !p_done") ];
    session_job ~label:"esw/overflow" ~backend:Session.Derived_model
      ~properties:[ ("never_overflow", "G !p_overflow") ];
    session_job ~label:"esw/bounded" ~backend:Session.Derived_model
      ~properties:[ ("done_quickly", "F[500] p_done") ];
  ]

let counters summary =
  [
    Campaign.total_triggers summary;
    Campaign.total_time_units summary;
    Campaign.total_test_cases summary;
    Campaign.total_timeouts summary;
  ]

(* a campaign with its merged trace rendered by the JSONL buffer sink *)
let traced ~workers jobs =
  let buffer = Buffer.create 4096 in
  let summary =
    Campaign.run_stream ~workers
      ~sinks:[ Campaign.jsonl_buffer_sink buffer ]
      jobs
  in
  (summary, Buffer.contents buffer)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_pool_matches_sequential () =
  let sequential, sequential_jsonl = traced ~workers:1 (make_jobs ()) in
  let pooled, pooled_jsonl = traced ~workers:4 (make_jobs ()) in
  Alcotest.(check int) "effective workers" 4 pooled.Campaign.workers;
  Alcotest.(check int) "all jobs have outcomes" 6
    (List.length pooled.Campaign.outcomes);
  Alcotest.(check (list (triple string string string)))
    "identical verdict vectors"
    (List.map
       (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
       (Campaign.verdicts sequential))
    (List.map
       (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
       (Campaign.verdicts pooled));
  Alcotest.(check (list int))
    "identical merged counters" (counters sequential) (counters pooled);
  Alcotest.(check string) "byte-identical merged JSONL" sequential_jsonl
    pooled_jsonl;
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length sequential_jsonl > 0);
  (* the mix is chosen to exercise all three verdicts *)
  let verdicts = List.map (fun (_, _, v) -> v) (Campaign.verdicts pooled) in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Verdict.to_string v ^ " verdict represented")
        true
        (List.exists (Verdict.equal v) verdicts))
    [ Verdict.True; Verdict.False; Verdict.Pending ]

let test_merge_order_and_seq () =
  let merged = ref [] in
  let collector =
    Campaign.sink (fun (o : Campaign.outcome) ->
        merged := List.rev_append o.events !merged)
  in
  let path = Filename.temp_file "campaign" ".jsonl" in
  let summary =
    Campaign.run_stream ~workers:3
      ~sinks:[ collector; Campaign.jsonl_file_sink path ]
      (make_jobs ())
  in
  let merged = List.rev !merged in
  let labels = List.map (fun o -> o.Campaign.label) summary.Campaign.outcomes in
  Alcotest.(check (list string)) "outcomes in job order, not completion order"
    [
      "esw/done"; "soc/safety"; "esw/eventually"; "esw/safety";
      "esw/overflow"; "esw/bounded";
    ]
    labels;
  List.iteri
    (fun expected o ->
      Alcotest.(check int) "outcome index" expected o.Campaign.index)
    summary.Campaign.outcomes;
  (* merged events are renumbered with a campaign-global seq *)
  List.iteri
    (fun expected event ->
      Alcotest.(check int) "campaign-global seq" expected event.Trace.seq)
    merged;
  (* and every merged event survives the JSONL round trip *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "one line per merged event" (List.length merged)
    (List.length !lines);
  List.iter
    (fun line ->
      match Trace.event_of_json line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg)
    (List.rev !lines)

(* a raise between healthy jobs must not take down the worker that ran
   it, the jobs after it, or the pool *)
let test_crash_between_jobs_is_contained () =
  let jobs =
    [
      session_job ~label:"ok-0" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
      Campaign.job ~label:"crash-1" (fun _trace -> failwith "boom 1");
      session_job ~label:"ok-2" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
      session_job ~label:"ok-3" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
      Campaign.job ~label:"crash-4" (fun _trace -> failwith "boom 2");
      session_job ~label:"ok-5" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
    ]
  in
  let summary = Campaign.run_stream ~workers:2 jobs in
  Alcotest.(check int) "all outcomes present" 6
    (List.length summary.Campaign.outcomes);
  Alcotest.(check (list string)) "both crashes surface, in job order"
    [ "crash-1"; "crash-4" ]
    (List.map fst (Campaign.errors summary));
  Alcotest.(check int) "jobs after a crash still completed" 4
    (List.length (Campaign.results summary));
  List.iter
    (fun (_, _, v) ->
      Alcotest.(check bool) "healthy verdicts final" true
        (Verdict.equal v Verdict.True))
    (Campaign.verdicts summary)

let test_worker_crash_is_contained () =
  let jobs =
    [
      session_job ~label:"ok-before" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
      Campaign.job ~label:"crasher" (fun _trace -> failwith "boom");
      session_job ~label:"ok-after" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
    ]
  in
  let summary = Campaign.run_stream ~workers:4 jobs in
  Alcotest.(check int) "three outcomes" 3 (List.length summary.Campaign.outcomes);
  (match (List.nth summary.Campaign.outcomes 1).Campaign.result with
  | Error msg ->
    Alcotest.(check bool) "error text carries the exception" true
      (contains ~needle:"boom" msg)
  | Ok _ -> Alcotest.fail "crashing job must produce an error outcome");
  Alcotest.(check (list string)) "crash surfaces in errors, in order"
    [ "crasher" ]
    (List.map fst (Campaign.errors summary));
  Alcotest.(check int) "healthy jobs still completed" 2
    (List.length (Campaign.results summary));
  List.iter
    (fun (_, _, v) ->
      Alcotest.(check bool) "healthy verdicts final" true
        (Verdict.equal v Verdict.True))
    (Campaign.verdicts summary)

(* Workers claim one job at a time: while job 0 runs on one worker, the
   other must be free to claim job 1. Job 0 spins until job 1 has
   finished, capped at 5 s of wall clock. Had one worker claimed jobs
   0 and 1 together, job 1 would wait behind job 0 on that worker and
   job 0 would run into the cap. *)
let test_per_job_claims () =
  let job1_finished = Atomic.make false in
  let capped = ref false in
  let wait_for_job1 () =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (Atomic.get job1_finished)) && not !capped do
      if Unix.gettimeofday () > deadline then capped := true;
      Domain.cpu_relax ()
    done
  in
  let jobs =
    List.init 16 (fun index ->
        Campaign.job ~label:(Printf.sprintf "claim-%d" index) (fun _trace ->
            if index = 0 then wait_for_job1 ()
            else if index = 1 then Atomic.set job1_finished true;
            failwith "scripted"))
  in
  let summary = Campaign.run_stream ~workers:2 jobs in
  Alcotest.(check int) "two workers" 2 summary.Campaign.workers;
  Alcotest.(check int) "all outcomes present" 16
    (List.length summary.Campaign.outcomes);
  Alcotest.(check bool) "job 1 finished while job 0 waited" false !capped

(* ---- the EEE case study through the pool ------------------------------- *)

let eee_plan =
  {
    Eee.Harness.default_plan with
    Eee.Harness.ops = [ Eee.Eee_spec.Read; Eee.Eee_spec.Write ];
    approaches = [ 2 ];
    cases_per_op = 4;
    fault_rate = 0.01;
    seed = 5;
  }

let test_eee_campaign_deterministic () =
  let jobs () = Eee.Harness.campaign_jobs eee_plan in
  let sequential, sequential_jsonl = traced ~workers:1 (jobs ()) in
  let pooled, pooled_jsonl = traced ~workers:3 (jobs ()) in
  Alcotest.(check bool) "no job errors" true
    (Campaign.errors sequential = [] && Campaign.errors pooled = []);
  Alcotest.(check (list (triple string string string)))
    "identical EEE verdicts"
    (List.map
       (fun (j, p, v) -> (j, p, Verdict.to_string v))
       (Campaign.verdicts sequential))
    (List.map
       (fun (j, p, v) -> (j, p, Verdict.to_string v))
       (Campaign.verdicts pooled));
  Alcotest.(check (list int))
    "identical EEE counters" (counters sequential) (counters pooled);
  Alcotest.(check string) "byte-identical EEE JSONL" sequential_jsonl
    pooled_jsonl;
  Alcotest.(check int) "every case completed or timed out"
    (2 * eee_plan.Eee.Harness.cases_per_op)
    (Campaign.total_test_cases pooled + Campaign.total_timeouts pooled)

(* ---- QCheck: the seed-splitting contract ------------------------------- *)

let draws n prng = List.init n (fun _ -> Prng.next_int64 prng)

let qcheck_streams_reproducible =
  QCheck.Test.make ~name:"same (seed, index) is bit-reproducible" ~count:100
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, index) ->
      draws 100 (Prng.of_seed_index ~seed ~index)
      = draws 100 (Prng.of_seed_index ~seed ~index))

let qcheck_streams_disjoint =
  QCheck.Test.make
    ~name:"distinct indices: first 1k draws are disjoint streams" ~count:50
    QCheck.(triple small_int (int_bound 10_000) (int_bound 10_000))
    (fun (seed, i, j) ->
      QCheck.assume (i <> j);
      let module S = Set.Make (Int64) in
      let a = S.of_list (draws 1_000 (Prng.of_seed_index ~seed ~index:i)) in
      let b = S.of_list (draws 1_000 (Prng.of_seed_index ~seed ~index:j)) in
      (* the prefixes must differ — and in fact share no value at all *)
      S.is_empty (S.inter a b))

let qcheck_named_split_stable =
  QCheck.Test.make ~name:"named split of an indexed stream is reproducible"
    ~count:100
    QCheck.(pair small_int (int_bound 1_000))
    (fun (seed, index) ->
      let stream () = Prng.split (Prng.of_seed_index ~seed ~index) "flash" in
      draws 50 (stream ()) = draws 50 (stream ()))

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs 1 == jobs 4 (verdicts, counters, JSONL)"
            `Quick test_pool_matches_sequential;
          Alcotest.test_case "deterministic merge order and seq" `Quick
            test_merge_order_and_seq;
          Alcotest.test_case "worker crash is contained" `Quick
            test_worker_crash_is_contained;
          Alcotest.test_case "crash inside a chunk is contained" `Quick
            test_crash_between_jobs_is_contained;
          Alcotest.test_case "one job per claim: job 1 runs while job 0 waits"
            `Quick test_per_job_claims;
        ] );
      ( "eee",
        [
          Alcotest.test_case "EEE campaign deterministic across pools" `Quick
            test_eee_campaign_deterministic;
        ] );
      ( "prng",
        [
          QCheck_alcotest.to_alcotest qcheck_streams_reproducible;
          QCheck_alcotest.to_alcotest qcheck_streams_disjoint;
          QCheck_alcotest.to_alcotest qcheck_named_split_stable;
        ] );
    ]
