(* The deterministic statistical test battery for lib/smc.

   Every check here is reproducible: closed-form bounds are asserted
   exactly, sampled checks draw their Bernoulli streams from fixed
   Stimuli.Prng seeds (never the global Random state), and the QCheck
   property holds for *any* generated input up to an SPRT error
   probability pinned at 1e-6 — far below one expected flake over the
   repository's lifetime. The runner tests use synthetic campaign jobs
   with scripted verdicts, so the statistics are exact; one quick
   end-to-end case (and a TCHECK_SOAK=1 soak) runs the real
   fault-injected EEE campaigns. *)

module Estimator = Smc.Estimator
module Chernoff = Smc.Estimator.Chernoff
module Sprt = Smc.Estimator.Sprt
module Faults = Smc.Faults
module Runner = Smc.Runner
module Campaign = Verif.Campaign
module Prng = Stimuli.Prng
module Flash = Dataflash.Flash
module Harness = Eee.Harness

(* ---- Chernoff-Hoeffding: the closed-form bound --------------------------- *)

let test_chernoff_exact () =
  (* ceil (ln(2/delta) / (2 eps^2)) at the two parameter points the
     front end documents *)
  Alcotest.(check int) "N(eps=0.05, delta=0.01)" 1060
    (Chernoff.sample_count ~eps:0.05 ~delta:0.01);
  Alcotest.(check int) "N(eps=0.1, delta=0.05)" 185
    (Chernoff.sample_count ~eps:0.1 ~delta:0.05);
  Alcotest.(check int) "N(eps=0.15, delta=0.2)" 52
    (Chernoff.sample_count ~eps:0.15 ~delta:0.2);
  (* tightening either knob can only demand more samples *)
  Alcotest.(check bool) "monotone in eps" true
    (Chernoff.sample_count ~eps:0.01 ~delta:0.05
    > Chernoff.sample_count ~eps:0.05 ~delta:0.05);
  Alcotest.(check bool) "monotone in delta" true
    (Chernoff.sample_count ~eps:0.05 ~delta:0.001
    > Chernoff.sample_count ~eps:0.05 ~delta:0.05)

let expect_invalid name thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_chernoff_validation () =
  expect_invalid "eps = 0" (fun () ->
      Chernoff.sample_count ~eps:0.0 ~delta:0.5);
  expect_invalid "eps = 1" (fun () ->
      Chernoff.sample_count ~eps:1.0 ~delta:0.5);
  expect_invalid "delta = 0" (fun () ->
      Chernoff.sample_count ~eps:0.5 ~delta:0.0);
  expect_invalid "too few samples" (fun () ->
      Chernoff.estimate ~eps:0.1 ~delta:0.05 ~samples:184 ~successes:100);
  expect_invalid "successes out of range" (fun () ->
      Chernoff.estimate ~eps:0.1 ~delta:0.05 ~samples:185 ~successes:186)

(* fixed-seed Bernoulli oracle: the estimate lands within eps of the
   true p — the statement the bound makes, checked on pinned streams *)
let test_fixed_seed_estimate_within_eps () =
  let eps = 0.05 and delta = 0.01 in
  let samples = Chernoff.sample_count ~eps ~delta in
  List.iter
    (fun (seed, p) ->
      let stream = Prng.create ~seed in
      let successes = ref 0 in
      for _ = 1 to samples do
        if Prng.chance stream p then incr successes
      done;
      let estimate = Chernoff.estimate ~eps ~delta ~samples ~successes:!successes in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: |%.4f - %.2f| <= eps" seed
           estimate.Chernoff.p_hat p)
        true
        (Float.abs (estimate.Chernoff.p_hat -. p) <= eps))
    [ (11, 0.3); (12, 0.85); (13, 0.5) ]

(* ---- SPRT: boundaries, truncation, validation ---------------------------- *)

let drive_constant test value =
  let rec go n =
    match Sprt.observe test value with
    | Sprt.Undecided -> go (n + 1)
    | Sprt.Decided decision -> (decision, n + 1)
  in
  go 0

(* theta 0.5, delta 0.1, alpha = beta = 0.05: each step moves the walk
   ln(0.4/0.6) = -0.405; the H0 boundary ln(0.05/0.95) = -2.944 is
   crossed on exactly the 8th consecutive success (symmetrically for
   failures and H1) *)
let test_sprt_boundaries () =
  let make () = Sprt.create ~theta:0.5 ~delta:0.1 ~alpha:0.05 ~beta:0.05 () in
  let test = make () in
  let decision, samples = drive_constant test true in
  Alcotest.(check bool) "all successes accept H0" true (decision = Sprt.H0);
  Alcotest.(check int) "H0 on the 8th success" 8 samples;
  Alcotest.(check bool) "not forced" false (Sprt.forced test);
  Alcotest.(check int) "samples recorded" 8 (Sprt.samples test);
  Alcotest.(check int) "successes recorded" 8 (Sprt.successes test);
  let test = make () in
  let decision, samples = drive_constant test false in
  Alcotest.(check bool) "all failures accept H1" true (decision = Sprt.H1);
  Alcotest.(check int) "H1 on the 8th failure" 8 samples;
  Alcotest.(check (float 1e-9)) "p_hat" 0.0 (Sprt.p_hat test)

let test_sprt_truncation_forces_decision () =
  let test =
    Sprt.create ~max_samples:1 ~theta:0.5 ~delta:0.1 ~alpha:0.05 ~beta:0.05 ()
  in
  (match Sprt.observe test true with
  | Sprt.Decided Sprt.H0 -> ()
  | _ -> Alcotest.fail "truncated success must force H0 (p_hat >= theta)");
  Alcotest.(check bool) "decision flagged as forced" true (Sprt.forced test);
  expect_invalid "observe after decision" (fun () -> Sprt.observe test true)

let test_sprt_validation () =
  expect_invalid "theta - delta <= 0" (fun () ->
      Sprt.create ~theta:0.05 ~delta:0.1 ~alpha:0.05 ~beta:0.05 ());
  expect_invalid "theta + delta >= 1" (fun () ->
      Sprt.create ~theta:0.95 ~delta:0.1 ~alpha:0.05 ~beta:0.05 ());
  expect_invalid "alpha out of range" (fun () ->
      Sprt.create ~theta:0.5 ~delta:0.1 ~alpha:0.0 ~beta:0.05 ());
  expect_invalid "max_samples < 1" (fun () ->
      Sprt.create ~max_samples:0 ~theta:0.5 ~delta:0.1 ~alpha:0.05 ~beta:0.05 ())

(* the indifference region: with the true p exactly at theta neither
   boundary attracts, and the truncation bound guarantees termination *)
let test_indifference_region_terminates () =
  let theta = 0.5 and delta = 0.05 in
  let test = Sprt.create ~theta ~delta ~alpha:0.05 ~beta:0.05 () in
  Alcotest.(check int) "default truncation = Chernoff bound"
    (Sprt.chernoff_bound ~delta ~alpha:0.05 ~beta:0.05)
    (Sprt.max_samples test);
  let stream = Prng.create ~seed:17 in
  let rec drive n =
    match Sprt.observe test (Prng.chance stream theta) with
    | Sprt.Undecided -> drive (n + 1)
    | Sprt.Decided _ -> n + 1
  in
  let samples = drive 0 in
  Alcotest.(check bool) "terminates within the truncation bound" true
    (samples <= Sprt.max_samples test);
  Alcotest.(check int) "sample counter agrees" samples (Sprt.samples test)

(* the headline economics on a pinned stream: a clear-cut p decides in a
   small fraction of the fixed-size bound *)
let test_sprt_beats_chernoff_bound () =
  let delta = 0.1 and alpha = 0.05 and beta = 0.05 in
  let bound = Sprt.chernoff_bound ~delta ~alpha ~beta in
  Alcotest.(check int) "fixed-size competitor" 185 bound;
  let test = Sprt.create ~theta:0.5 ~delta ~alpha ~beta () in
  let stream = Prng.create ~seed:42 in
  let rec drive () =
    match Sprt.observe test (Prng.chance stream 0.95) with
    | Sprt.Undecided -> drive ()
    | Sprt.Decided decision -> decision
  in
  Alcotest.(check bool) "p = 0.95 accepts H0" true (drive () = Sprt.H0);
  Alcotest.(check bool) "no truncation" false (Sprt.forced test);
  Alcotest.(check bool)
    (Printf.sprintf "%d samples, under a quarter of the bound"
       (Sprt.samples test))
    true
    (Sprt.samples test * 4 < bound)

(* for ANY p at least 2*delta from theta, the SPRT sides with the truth;
   alpha = beta = 1e-6 makes the per-case error probability negligible,
   so the property is deterministic for test purposes *)
let qcheck_sprt_agrees_with_truth =
  QCheck.Test.make ~count:40
    ~name:"SPRT decision matches the true side when |p - theta| >= 2*delta"
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 100_000))
    (fun (theta_pick, margin_pick, seed) ->
      let delta = 0.05 in
      let theta = 0.15 +. (0.70 *. float_of_int theta_pick /. 1000.0) in
      let margin =
        (2.0 *. delta) +. (0.05 *. float_of_int margin_pick /. 1000.0)
      in
      let above = seed mod 2 = 0 in
      let p =
        if above then min 0.995 (theta +. margin)
        else max 0.005 (theta -. margin)
      in
      let test = Sprt.create ~theta ~delta ~alpha:1e-6 ~beta:1e-6 () in
      let stream = Prng.create ~seed in
      let rec drive () =
        match Sprt.observe test (Prng.chance stream p) with
        | Sprt.Undecided -> drive ()
        | Sprt.Decided decision -> decision
      in
      let decision = drive () in
      Sprt.samples test <= Sprt.max_samples test
      && decision = (if p >= theta then Sprt.H0 else Sprt.H1))

(* ---- fault knob parsing -------------------------------------------------- *)

let faults_testable =
  Alcotest.testable
    (fun fmt faults -> Format.pp_print_string fmt (Faults.to_string faults))
    ( = )

let test_faults_parsing () =
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  let of_specs specs =
    Loc.catch (fun () ->
        List.fold_left (fun faults spec -> Faults.parse_knob spec faults)
          Faults.none specs)
  in
  (match of_specs [ "decay=0.1"; "power-loss=0.2"; "jitter=0.3:5" ] with
  | Error e -> Alcotest.failf "parse failed: %s" (Loc.to_string e)
  | Ok faults ->
    Alcotest.check faults_testable "all three knobs"
      { Faults.decay = 0.1; power_loss = 0.2; jitter_prob = 0.3; jitter_max = 5 }
      faults;
    Alcotest.(check bool) "not none" false (Faults.is_none faults);
    Alcotest.(check string) "round trip" "decay=0.1,power-loss=0.2,jitter=0.3:5"
      (Faults.to_string faults));
  Alcotest.(check string) "none renders as none" "none"
    (Faults.to_string Faults.none);
  List.iter
    (fun spec ->
      match of_specs [ spec ] with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" spec
      | Error _ -> ())
    [ "decay=2.0"; "decay=x"; "power-loss=-0.1"; "jitter=0.1"; "jitter=0.1:0";
      "bogus=1"; "decay" ]

(* ---- flash fault injection ----------------------------------------------- *)

let tiny_flash ?faults ~seed () =
  Flash.create ~prng:(Prng.create ~seed) ?faults
    {
      Flash.num_blocks = 1;
      words_per_block = 4;
      erase_ticks = 2;
      write_ticks = 1;
      write_fail_prob = 0.0;
      erase_fail_prob = 0.0;
    }

let settle flash =
  while Flash.status flash = Flash.Busy do
    Flash.tick flash
  done

let test_flash_power_loss_tears_write () =
  let flash =
    tiny_flash ~faults:{ Flash.decay_prob = 0.0; power_loss_prob = 1.0 }
      ~seed:3 ()
  in
  (match Flash.start_write flash ~addr:0 ~value:0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write must be accepted");
  settle flash;
  Alcotest.(check bool) "device lands in Fault" true
    (Flash.status flash = Flash.Fault);
  Alcotest.(check int) "power loss counted" 1
    (Flash.power_losses_injected flash);
  Alcotest.(check int) "fault counted" 1 (Flash.faults_injected flash)

let test_flash_decay_flips_programmed_bits () =
  let flash =
    tiny_flash ~faults:{ Flash.decay_prob = 1.0; power_loss_prob = 0.0 }
      ~seed:5 ()
  in
  (match Flash.start_write flash ~addr:0 ~value:0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write must be accepted");
  settle flash;
  Alcotest.(check int) "programmed clean" 0 (Flash.read_word flash 0);
  (* every tick draws a decay site; erased cells never decay, so with
     one programmed word among four the seed-5 stream lands on it well
     within 64 ticks *)
  for _ = 1 to 64 do
    Flash.tick flash
  done;
  Alcotest.(check bool) "decays recorded" true (Flash.decays_injected flash > 0);
  Alcotest.(check bool) "a programmed bit relaxed toward erased" true
    (Flash.read_word flash 0 <> 0);
  Alcotest.(check bool) "no fault status from silent decay" true
    (Flash.status flash = Flash.Ready)

let test_flash_zero_rates_draw_nothing () =
  (* a zero-probability overlay must be indistinguishable from no
     overlay at all — same cells, same statistics, same status *)
  let noisy =
    tiny_flash ~faults:{ Flash.decay_prob = 0.0; power_loss_prob = 0.0 }
      ~seed:7 ()
  and plain = tiny_flash ~seed:7 () in
  List.iter
    (fun flash ->
      (match Flash.start_write flash ~addr:1 ~value:0x1234 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write must be accepted");
      for _ = 1 to 16 do
        Flash.tick flash
      done)
    [ noisy; plain ];
  Alcotest.(check int) "identical cell"
    (Flash.read_word plain 1) (Flash.read_word noisy 1);
  Alcotest.(check int) "no decays" 0 (Flash.decays_injected noisy);
  Alcotest.(check int) "no power losses" 0 (Flash.power_losses_injected noisy)

(* ---- Runner over synthetic jobs ------------------------------------------ *)

let synthetic_result ~ok =
  {
    Verif.Result.backend = "synthetic";
    properties =
      [
        {
          Verif.Result.property = "p";
          verdict = (if ok then Verdict.True else Verdict.False);
          first_final_at = None;
        };
      ];
    triggers = 0;
    time_units = 0;
    vt_seconds = 0.0;
    synthesis_seconds = 0.0;
    test_cases = None;
    timeouts = 0;
    coverage = None;
    trace_events = 0;
  }

let synthetic_job ~index ok =
  Campaign.job ~label:(Printf.sprintf "synthetic-%d" index) (fun _trace ->
      synthetic_result ~ok)

let succeeded (outcome : Campaign.outcome) =
  match outcome.Campaign.result with
  | Error _ -> false
  | Ok result ->
    not (Verdict.equal (Verif.Result.overall result) Verdict.False)

let decision_testable =
  Alcotest.testable Runner.pp_decision (fun a b -> a = b)

let test_runner_fixed_exact () =
  let report =
    Runner.run ~workers:2 ~label:"fixed"
      ~job:(fun ~index -> synthetic_job ~index (index mod 3 <> 0))
      ~succeeded
      (Runner.Fixed { eps = 0.15; delta = 0.2 })
  in
  Alcotest.(check int) "samples = Chernoff N" 52 report.Runner.samples;
  Alcotest.(check int) "chernoff_n echoes it" 52 report.Runner.chernoff_n;
  (* indices 0..51 divisible by 3: 18 scripted failures *)
  Alcotest.(check int) "successes" 34 report.Runner.successes;
  Alcotest.(check (float 1e-9)) "p_hat" (34.0 /. 52.0) report.Runner.p_hat;
  Alcotest.check decision_testable "decision" Runner.Estimate
    report.Runner.decision;
  Alcotest.(check bool) "not early stopped" false report.Runner.early_stopped;
  Alcotest.(check (list (pair string string))) "no errors" []
    report.Runner.errors;
  let stats = report.Runner.stream in
  Alcotest.(check int) "nothing cancelled" 0 stats.Campaign.cancelled_jobs;
  Alcotest.(check int) "every sample emitted" 52 stats.Campaign.emitted

(* workers=1 makes the sequential runner fully deterministic: the inline
   pool checks cancellation before each job, so exactly [samples] jobs
   execute and the rest are cancelled *)
let test_runner_sequential_h0_cancels_rest () =
  let report =
    Runner.run ~workers:1 ~label:"seq-h0"
      ~job:(fun ~index -> synthetic_job ~index true)
      ~succeeded
      (Runner.Sequential
         { theta = 0.5; delta = 0.1; alpha = 0.05; beta = 0.05;
           max_samples = None })
  in
  Alcotest.check decision_testable "decision" Runner.Accept_h0
    report.Runner.decision;
  Alcotest.(check int) "decided on the 8th sample" 8 report.Runner.samples;
  Alcotest.(check int) "chernoff_n" 185 report.Runner.chernoff_n;
  Alcotest.(check bool) "early stopped" true report.Runner.early_stopped;
  Alcotest.(check bool) "not forced" false report.Runner.forced;
  let stats = report.Runner.stream in
  Alcotest.(check int) "8 executed, 177 cancelled" 177
    stats.Campaign.cancelled_jobs;
  Alcotest.(check int) "emitted = executed" 8 stats.Campaign.emitted

let test_runner_sequential_h1 () =
  let report =
    Runner.run ~workers:1 ~label:"seq-h1"
      ~job:(fun ~index -> synthetic_job ~index false)
      ~succeeded
      (Runner.Sequential
         { theta = 0.5; delta = 0.1; alpha = 0.05; beta = 0.05;
           max_samples = None })
  in
  Alcotest.check decision_testable "decision" Runner.Accept_h1
    report.Runner.decision;
  Alcotest.(check int) "decided on the 8th sample" 8 report.Runner.samples;
  Alcotest.(check int) "no successes" 0 report.Runner.successes

let test_runner_counts_crashes_as_failures () =
  let report =
    Runner.run ~workers:1 ~label:"crashy"
      ~job:(fun ~index ->
        if index = 2 then
          Campaign.job ~label:"boom-2" (fun _trace -> failwith "boom")
        else synthetic_job ~index true)
      ~succeeded
      (Runner.Fixed { eps = 0.4; delta = 0.4 })
  in
  Alcotest.(check int) "small fixed N" 6 report.Runner.samples;
  Alcotest.(check int) "crash counted as failure" 5 report.Runner.successes;
  Alcotest.(check (list (pair string string))) "crash surfaces in errors"
    [ ("boom-2", "Failure(\"boom\")") ]
    report.Runner.errors

(* the resurfacing contract end to end: a failing user sink aborts the
   run with the sink's Failure even though the sequential test decides
   and cancels first *)
let test_runner_sink_failure_resurfaces () =
  let bomb =
    Campaign.sink (fun outcome ->
        if outcome.Campaign.index = 0 then failwith "smc sink bomb")
  in
  match
    Runner.run ~workers:1 ~sinks:[ bomb ] ~label:"sink-bomb"
      ~job:(fun ~index -> synthetic_job ~index true)
      ~succeeded
      (Runner.Sequential
         { theta = 0.5; delta = 0.1; alpha = 0.05; beta = 0.05;
           max_samples = None })
  with
  | _report -> Alcotest.fail "sink failure must resurface as Failure"
  | exception Failure msg ->
    let contains needle =
      let n = String.length needle and h = String.length msg in
      let rec at i =
        i + n <= h && (String.sub msg i n = needle || at (i + 1))
      in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "failure names the sink: %s" msg)
      true
      (contains "sink failed" && contains "smc sink bomb")

(* ---- end to end over the real fault-injected EEE campaigns --------------- *)

let eee_plan ~op ~bound ~faults ~seed =
  {
    Harness.default_plan with
    Harness.ops = [ op ];
    approaches = [ 2 ];
    cases_per_op = 1;
    bound;
    fault_rate = 0.02;
    faults;
    flash = Some (Harness.flash_quick_config ~fault_rate:0.02);
    seed;
  }

let run_eee ~workers ~plan ~op spec =
  Runner.run ~workers ~label:"test-smc"
    ~job:(fun ~index -> Harness.smc_sample_job plan ~approach:2 ~op ~index)
    ~succeeded:(Harness.smc_succeeded ?prop:None)
    spec

(* the acceptance scenario: under light faults the Read response
   property holds nearly always, so the SPRT accepts H0 against
   theta = 0.5 in a handful of samples — far below the fixed-size
   bound of 185 *)
let test_eee_sprt_early_stops () =
  let plan =
    eee_plan ~op:Eee.Eee_spec.Read ~bound:None
      ~faults:{ Faults.none with Faults.decay = 0.0005; power_loss = 0.05 }
      ~seed:7
  in
  let report =
    run_eee ~workers:2 ~plan ~op:Eee.Eee_spec.Read
      (Runner.Sequential
         { theta = 0.5; delta = 0.1; alpha = 0.05; beta = 0.05;
           max_samples = None })
  in
  Alcotest.check decision_testable "H0 accepted" Runner.Accept_h0
    report.Runner.decision;
  Alcotest.(check (list (pair string string))) "no sample errors" []
    report.Runner.errors;
  Alcotest.(check bool) "early stopped" true report.Runner.early_stopped;
  Alcotest.(check bool)
    (Printf.sprintf "%d samples, under a quarter of the %d bound"
       report.Runner.samples report.Runner.chernoff_n)
    true
    (report.Runner.samples * 4 < report.Runner.chernoff_n)

(* TCHECK_SOAK=1: the full statistical picture on real campaigns — a
   failing scenario decided H1 sequentially, then estimated fixed-size,
   with the sequential cost strictly below the fixed-size bound *)
let soak_eee_statistics () =
  let faults = { Faults.none with Faults.power_loss = 0.4 } in
  let plan =
    eee_plan ~op:Eee.Eee_spec.Write ~bound:(Some 50) ~faults ~seed:31
  in
  let sequential =
    run_eee ~workers:2 ~plan ~op:Eee.Eee_spec.Write
      (Runner.Sequential
         { theta = 0.8; delta = 0.05; alpha = 0.05; beta = 0.05;
           max_samples = None })
  in
  Alcotest.check decision_testable "torn writes blow the 50-statement bound"
    Runner.Accept_h1 sequential.Runner.decision;
  Alcotest.(check (list (pair string string))) "no sequential errors" []
    sequential.Runner.errors;
  Alcotest.(check bool) "sequential cost below the fixed-size bound" true
    (sequential.Runner.samples < sequential.Runner.chernoff_n);
  let fixed =
    run_eee ~workers:2 ~plan ~op:Eee.Eee_spec.Write
      (Runner.Fixed { eps = 0.1; delta = 0.05 })
  in
  Alcotest.(check int) "fixed-size campaign draws the full bound" 185
    fixed.Runner.samples;
  Alcotest.(check (list (pair string string))) "no fixed errors" []
    fixed.Runner.errors;
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f confirms H1 (below theta - delta)"
       fixed.Runner.p_hat)
    true
    (fixed.Runner.p_hat < 0.75)

let soak_enabled () = Sys.getenv_opt "TCHECK_SOAK" = Some "1"

let () =
  let soak_cases =
    if soak_enabled () then
      [
        Alcotest.test_case "H1 + fixed estimate on real campaigns" `Slow
          soak_eee_statistics;
      ]
    else []
  in
  Alcotest.run "smc"
    [
      ( "chernoff",
        [
          Alcotest.test_case "closed-form sample counts" `Quick
            test_chernoff_exact;
          Alcotest.test_case "parameter validation" `Quick
            test_chernoff_validation;
          Alcotest.test_case "fixed-seed estimate within eps" `Quick
            test_fixed_seed_estimate_within_eps;
        ] );
      ( "sprt",
        [
          Alcotest.test_case "Wald boundaries, exact sample counts" `Quick
            test_sprt_boundaries;
          Alcotest.test_case "truncation forces a flagged decision" `Quick
            test_sprt_truncation_forces_decision;
          Alcotest.test_case "parameter validation" `Quick
            test_sprt_validation;
          Alcotest.test_case "indifference region terminates" `Quick
            test_indifference_region_terminates;
          Alcotest.test_case "early stop beats the Chernoff bound" `Quick
            test_sprt_beats_chernoff_bound;
          QCheck_alcotest.to_alcotest qcheck_sprt_agrees_with_truth;
        ] );
      ( "faults",
        [
          Alcotest.test_case "knob parsing and round trips" `Quick
            test_faults_parsing;
          Alcotest.test_case "power loss tears a write" `Quick
            test_flash_power_loss_tears_write;
          Alcotest.test_case "bit decay relaxes programmed cells" `Quick
            test_flash_decay_flips_programmed_bits;
          Alcotest.test_case "zero rates draw nothing" `Quick
            test_flash_zero_rates_draw_nothing;
        ] );
      ( "runner",
        [
          Alcotest.test_case "fixed-size campaign, exact statistics" `Quick
            test_runner_fixed_exact;
          Alcotest.test_case "sequential H0 cancels the remainder" `Quick
            test_runner_sequential_h0_cancels_rest;
          Alcotest.test_case "sequential H1" `Quick test_runner_sequential_h1;
          Alcotest.test_case "crashed samples count as failures" `Quick
            test_runner_counts_crashes_as_failures;
          Alcotest.test_case "sink failure resurfaces despite cancel" `Quick
            test_runner_sink_failure_resurfaces;
        ] );
      ( "eee",
        Alcotest.test_case "SPRT early-stops on the real campaign" `Quick
          test_eee_sprt_early_stops
        :: soak_cases );
    ]
