(* Tests for the SCTC core: checker lifecycle, engines, violation callbacks,
   coverage collection, and simulation triggers. *)

module Checker = Sctc.Checker
module Coverage = Sctc.Coverage
module Trace = Sctc.Trace
module Trigger = Sctc.Trigger
module Kernel = Sim.Kernel
module Clock = Sim.Clock

let verdict_t = Alcotest.testable Verdict.pp Verdict.equal
let check_verdict = Alcotest.check verdict_t

(* --- checker basics ------------------------------------------------------ *)

let scripted_checker ?engine () =
  let a = ref false and b = ref false in
  let checker = Checker.create ~name:"test" () in
  Checker.register_sampler checker "a" (fun () -> !a);
  Checker.register_sampler checker "b" (fun () -> !b);
  Checker.add_property_text ?engine checker ~name:"resp" "G (a -> F[2] b)";
  (checker, a, b)

let test_checker_basic_run () =
  let checker, a, b = scripted_checker () in
  Checker.step checker;
  check_verdict "pending initially" Verdict.Pending
    (Checker.verdict checker "resp");
  a := true;
  Checker.step checker;
  a := false;
  Checker.step checker;
  b := true;
  Checker.step checker;
  check_verdict "request answered, still guarding" Verdict.Pending
    (Checker.verdict checker "resp");
  Alcotest.(check int) "steps counted" 4 (Checker.steps checker)

let test_checker_violation_callback () =
  let checker, a, _b = scripted_checker () in
  let fired = ref [] in
  Checker.on_violation checker (fun name step -> fired := (name, step) :: !fired);
  a := true;
  Checker.step checker;
  (* trigger request *)
  a := false;
  Checker.step checker;
  Checker.step checker;
  Checker.step checker;
  (* F[2] window (steps 1..3) expired without b *)
  check_verdict "violated" Verdict.False (Checker.verdict checker "resp");
  Alcotest.(check (list (pair string int))) "fired exactly once at step 3"
    [ ("resp", 3) ] !fired;
  Checker.step checker;
  Alcotest.(check int) "no refire" 1 (List.length !fired)

let test_checker_engines_agree () =
  let run engine =
    let checker, a, b = scripted_checker ~engine () in
    (* unbounded response: the request at step 4 is never answered, so
       the script ends with this liveness obligation pending *)
    Checker.add_property_text ~engine checker ~name:"live" "G (a -> F b)";
    let script =
      [ (false, false); (true, false); (false, false); (false, true);
        (true, false); (false, false); (false, false); (false, false) ]
    in
    let per_step =
      List.map
        (fun (va, vb) ->
          a := va;
          b := vb;
          Checker.step checker;
          Checker.verdicts checker)
        script
    in
    (per_step, Checker.finalize checker, Checker.finalize ~strong:true checker)
  in
  let verdicts = Alcotest.(list (pair string verdict_t)) in
  let otf_steps, otf_weak, otf_strong = run Checker.Otf in
  check_verdict "live pending at the end" Verdict.Pending
    (List.assoc "live" otf_weak);
  check_verdict "strong close fails live" Verdict.False
    (List.assoc "live" otf_strong);
  List.iter
    (fun engine ->
      let label = Sctc.Engine.to_string engine in
      let steps, weak, strong = run engine in
      List.iteri
        (fun i (v1, v2) ->
          Alcotest.check verdicts (Printf.sprintf "%s step %d" label i) v1 v2)
        (List.combine otf_steps steps);
      Alcotest.check verdicts (label ^ " finalize") otf_weak weak;
      Alcotest.check verdicts (label ^ " finalize ~strong") otf_strong strong)
    (List.filter (fun e -> e <> Sctc.Engine.Otf) Sctc.Engine.all)

let test_checker_unknown_prop_rejected () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  match
    Checker.add_property_text checker ~name:"p" "G (a -> F missing)"
  with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions proposition" true
      (String.length msg > 0)

let test_checker_duplicate_property () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Checker.add_property_text checker ~name:"p" "G a";
  match Checker.add_property_text checker ~name:"p" "F a" with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_checker_psl_syntax () =
  let checker = Checker.create ~name:"t" () in
  let ok = ref true in
  Checker.register_sampler checker "ok" (fun () -> !ok);
  Checker.add_property_text ~syntax:`Psl checker ~name:"inv"
    "always ok";
  Checker.step checker;
  check_verdict "pending" Verdict.Pending (Checker.verdict checker "inv");
  ok := false;
  Checker.step checker;
  check_verdict "violated" Verdict.False (Checker.verdict checker "inv")

let test_checker_overall_and_finalize () =
  let checker = Checker.create ~name:"t" () in
  let a = ref true in
  Checker.register_sampler checker "a" (fun () -> !a);
  Checker.add_property_text checker ~name:"safety" "G a";
  Checker.add_property_text checker ~name:"liveness" "F !a";
  Checker.step checker;
  check_verdict "overall pending" Verdict.Pending (Checker.overall checker);
  let final = Checker.finalize ~strong:true checker in
  check_verdict "safety true under strong close" Verdict.True
    (List.assoc "safety" final);
  check_verdict "liveness false under strong close" Verdict.False
    (List.assoc "liveness" final)

let test_checker_reset () =
  let checker, a, _b = scripted_checker () in
  a := true;
  Checker.step checker;
  Checker.step checker;
  Checker.step checker;
  Checker.step checker;
  check_verdict "violated before reset" Verdict.False
    (Checker.verdict checker "resp");
  Checker.reset checker;
  Alcotest.(check int) "steps zeroed" 0 (Checker.steps checker);
  check_verdict "pending after reset" Verdict.Pending
    (Checker.verdict checker "resp")

let test_synthesis_time_accounted () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Alcotest.(check (float 0.0)) "zero before" 0.0
    (Checker.synthesis_seconds checker);
  (* a bound no other test uses, so this add explores a fresh table *)
  Checker.add_property_text ~engine:Checker.Explicit checker ~name:"p"
    "F[2017] a";
  Alcotest.(check bool) "positive after explicit synthesis" true
    (Checker.synthesis_seconds checker > 0.0);
  (* the same property on a fresh checker finds the table this domain
     already explored: no new synthesis time is charged *)
  let cached = Checker.create ~name:"t2" () in
  Checker.register_sampler cached "a" (fun () -> true);
  Checker.add_property_text ~engine:Checker.Explicit cached ~name:"p"
    "F[2017] a";
  Alcotest.(check (float 0.0)) "cache hit charges no synthesis time" 0.0
    (Checker.synthesis_seconds cached)

(* A transition mask is one OCaml int: a support wider than its
   [Sys.int_size] bits is rejected at registration, with the count in
   the message, and the widest accepted support still reads its top
   proposition. *)
let test_checker_wide_support () =
  let checker_over width =
    let names = List.init width (Printf.sprintf "p%02d") in
    let top = List.nth names (width - 1) in
    let checker = Checker.create ~name:"wide" () in
    List.iter
      (fun name ->
        Checker.register_sampler checker name (fun () -> String.equal name top))
      names;
    let any = List.fold_left Formula.or_ Formula.fls (List.map Formula.prop names) in
    (checker, Formula.globally None any)
  in
  let checker, formula = checker_over Sys.int_size in
  Checker.add_property checker ~name:"any" formula;
  for _ = 1 to 3 do
    Checker.step checker
  done;
  check_verdict "only the top proposition holds" Verdict.Pending
    (Checker.verdict checker "any");
  let checker, formula = checker_over (Sys.int_size + 1) in
  match Checker.add_property checker ~name:"any" formula with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let count = string_of_int (Sys.int_size + 1) in
    let n = String.length count in
    let rec mentions i =
      i + n <= String.length msg && (String.sub msg i n = count || mentions (i + 1))
    in
    Alcotest.(check bool) (Printf.sprintf "%S gives the count" msg) true
      (mentions 0)

(* --- coverage ------------------------------------------------------------- *)

let test_coverage_basic () =
  let cov = Coverage.create ~name:"read" ~expected:[ "OK"; "BUSY"; "ERR" ] in
  Alcotest.(check (float 0.01)) "empty" 0.0 (Coverage.percent cov);
  Coverage.observe cov "OK";
  Coverage.observe cov "OK";
  Coverage.observe cov "BUSY";
  Alcotest.(check (float 0.01)) "two thirds" 66.67 (Coverage.percent cov);
  Alcotest.(check (list string)) "missing" [ "ERR" ] (Coverage.missing cov);
  Alcotest.(check int) "observations" 3 (Coverage.observations cov);
  Coverage.observe cov "WAT";
  Alcotest.(check (list string)) "unexpected" [ "WAT" ] (Coverage.unexpected cov);
  Coverage.observe cov "ERR";
  Alcotest.(check (float 0.01)) "full" 100.0 (Coverage.percent cov)

let test_coverage_merge_and_reset () =
  let mk () = Coverage.create ~name:"op" ~expected:[ "A"; "B" ] in
  let c1 = mk () and c2 = mk () in
  Coverage.observe c1 "A";
  Coverage.observe c2 "B";
  let merged = Coverage.merge c1 c2 in
  Alcotest.(check (float 0.01)) "merged full" 100.0 (Coverage.percent merged);
  Coverage.reset c1;
  Alcotest.(check (float 0.01)) "reset empty" 0.0 (Coverage.percent c1);
  let other = Coverage.create ~name:"other" ~expected:[ "A" ] in
  match Coverage.merge c1 other with
  | _ -> Alcotest.fail "expected incompatible merge to fail"
  | exception Invalid_argument _ -> ()

(* --- sim triggers ----------------------------------------------------------- *)

let test_trigger_on_clock () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 in
  let level = ref 0 in
  let checker = Checker.create ~name:"clocked" () in
  Checker.register_sampler checker "high" (fun () -> !level > 3);
  Checker.add_property_text checker ~name:"even" "F high";
  Trigger.on_clock kernel clock checker;
  Kernel.spawn_method kernel (Clock.posedge clock) (fun () -> incr level);
  Kernel.run ~max_time:100 kernel;
  Alcotest.(check bool) "checker stepped once per edge" true
    (Checker.steps checker >= 9);
  check_verdict "liveness seen" Verdict.True (Checker.verdict checker "even")

(* The traced path of [Trigger.on_clock]: [Handshake_armed] in the
   trigger's first evaluation phase, then per edge a [Trigger] and the
   checker's samples and verdict changes. A method spawned before the
   trigger runs on the same clock and raises the sampled level, so each
   sample shows whether that method or the trigger ran first on that edge.
   Recorded from the thread-based trigger with a thread in the method's
   place. *)
let test_trigger_on_clock_trace () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 in
  let trace = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach trace sink;
  Trace.set_time_source trace (fun () -> Kernel.now kernel);
  let level = ref 0 in
  Kernel.spawn_method kernel (Clock.posedge clock) (fun () -> incr level);
  let checker = Checker.create ~trace ~name:"clocked" () in
  Checker.register_sampler checker "high" (fun () -> !level > 2);
  Checker.add_property_text checker ~name:"eventually_high" "F high";
  Trigger.on_clock kernel clock checker;
  Kernel.run ~max_time:40 kernel;
  Alcotest.(check (list string)) "traced events"
    [
      {|{"seq":0,"tu":0,"event":"handshake_armed","source":"clk.posedge"}|};
      {|{"seq":1,"tu":0,"event":"trigger"}|};
      {|{"seq":2,"tu":0,"event":"sample","prop":"high","value":false}|};
      {|{"seq":3,"tu":0,"event":"verdict_change","property":"eventually_high","verdict":"pending"}|};
      {|{"seq":4,"tu":10,"event":"trigger"}|};
      {|{"seq":5,"tu":10,"event":"sample","prop":"high","value":false}|};
      {|{"seq":6,"tu":20,"event":"trigger"}|};
      {|{"seq":7,"tu":20,"event":"sample","prop":"high","value":true}|};
      {|{"seq":8,"tu":20,"event":"verdict_change","property":"eventually_high","verdict":"true"}|};
      {|{"seq":9,"tu":30,"event":"trigger"}|};
      {|{"seq":10,"tu":40,"event":"trigger"}|};
    ]
    (List.map Trace.event_to_json (events ()))

let suite_checker =
  [
    Alcotest.test_case "basic run" `Quick test_checker_basic_run;
    Alcotest.test_case "violation callback" `Quick
      test_checker_violation_callback;
    Alcotest.test_case "engines agree" `Quick test_checker_engines_agree;
    Alcotest.test_case "unknown proposition rejected" `Quick
      test_checker_unknown_prop_rejected;
    Alcotest.test_case "duplicate property rejected" `Quick
      test_checker_duplicate_property;
    Alcotest.test_case "psl syntax" `Quick test_checker_psl_syntax;
    Alcotest.test_case "overall and finalize" `Quick
      test_checker_overall_and_finalize;
    Alcotest.test_case "reset" `Quick test_checker_reset;
    Alcotest.test_case "synthesis time accounted" `Quick
      test_synthesis_time_accounted;
    Alcotest.test_case "wide support" `Quick test_checker_wide_support;
  ]

let suite_coverage =
  [
    Alcotest.test_case "basic" `Quick test_coverage_basic;
    Alcotest.test_case "merge and reset" `Quick test_coverage_merge_and_reset;
  ]

let suite_trigger =
  [
    Alcotest.test_case "on clock" `Quick test_trigger_on_clock;
    Alcotest.test_case "on clock, traced" `Quick test_trigger_on_clock_trace;
  ]

let () =
  Alcotest.run "sctc"
    [
      ("checker", suite_checker);
      ("coverage", suite_coverage);
      ("trigger", suite_trigger);
    ]
