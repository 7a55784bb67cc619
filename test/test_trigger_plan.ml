(* Tests for the compiled trigger plan: the shared per-trigger sample
   vector (each proposition probed exactly once per trigger, however
   many properties share it), active-set stepping (settled monitors are
   skipped), and the per-domain AR-automaton tables monitors step —
   differentially against plain [Progression.step], and under 4
   concurrent domains against a single-domain oracle. *)

module Checker = Sctc.Checker
module Trace = Sctc.Trace
module F = Formula

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

let valuation_of_triple (a, b, c) name =
  match name with
  | "a" -> a
  | "b" -> b
  | "c" -> c
  | _ -> invalid_arg ("unexpected proposition " ^ name)

(* the retained reference stepper: uncached, unindexed progression *)
let reference_verdicts formula script =
  let current = ref formula in
  List.map
    (fun triple ->
      if not (Verdict.is_final (Progression.verdict !current)) then
        current := Progression.step !current (valuation_of_triple triple);
      Progression.verdict !current)
    script

let plan_checker_of formulas =
  let current = ref (false, false, false) in
  let checker = Checker.create ~name:"plan" () in
  List.iter
    (fun name ->
      Checker.register_sampler checker name (fun () ->
          valuation_of_triple !current name))
    [ "a"; "b"; "c" ];
  List.iteri
    (fun i formula ->
      Checker.add_property checker ~name:(Printf.sprintf "p%d" i) formula)
    formulas;
  (checker, current)

let plan_verdicts formula script =
  let checker, current = plan_checker_of [ formula ] in
  List.map
    (fun triple ->
      current := triple;
      Checker.step checker;
      Checker.verdict checker "p0")
    script

(* --- differential qcheck: fast path vs plain progression --------------- *)

let gen_formula =
  let open QCheck.Gen in
  let prop_name = oneofl [ "a"; "b"; "c" ] in
  let bound = oneof [ return None; map (fun n -> Some n) (int_bound 3) ] in
  sized_size (int_bound 12)
  @@ QCheck.Gen.fix (fun self n ->
         if n = 0 then oneof [ return F.tru; return F.fls; map F.prop prop_name ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map F.prop prop_name;
               map F.not_ sub;
               map2 F.and_ sub sub;
               map2 F.or_ sub sub;
               map F.next sub;
               map2 F.finally bound sub;
               map2 F.globally bound sub;
               map3 F.until bound sub sub;
               map3 F.release bound sub sub;
             ])

let arbitrary_case =
  QCheck.make
    ~print:(fun (formula, script) ->
      Printf.sprintf "%s on %s" (F.to_string formula)
        (String.concat ";"
           (List.map
              (fun (a, b, c) -> Printf.sprintf "(%b,%b,%b)" a b c)
              script)))
    QCheck.Gen.(
      pair gen_formula (list_size (int_range 1 10) (triple bool bool bool)))

let qcheck_plan_matches_progression =
  QCheck.Test.make
    ~name:"compiled plan (On_the_fly) == plain Progression.step, per step"
    ~count:1000 arbitrary_case (fun (formula, script) ->
      let reference = reference_verdicts formula script in
      let fast = plan_verdicts formula script in
      List.for_all2 Verdict.equal reference fast)

(* several properties on one checker must not disturb each other even
   though they share the sample vector and the AR-automaton tables *)
let qcheck_plan_multi_property =
  QCheck.Test.make
    ~name:"three shared-support properties == three independent references"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (return 3) gen_formula)
           (list_size (int_range 1 10) (triple bool bool bool))))
    (fun (formulas, script) ->
      let checker, current = plan_checker_of formulas in
      let fast =
        List.concat_map
          (fun triple ->
            current := triple;
            Checker.step checker;
            List.map snd (Checker.verdicts checker))
          script
      in
      let reference =
        let per_formula =
          List.map
            (fun f -> Array.of_list (reference_verdicts f script))
            formulas
        in
        List.concat_map
          (fun step -> List.map (fun v -> v.(step)) per_formula)
          (List.init (List.length script) (fun i -> i))
      in
      List.for_all2 Verdict.equal reference fast)

(* --- shared sample vector ----------------------------------------------- *)

let test_shared_prop_probed_once () =
  let probes = ref 0 in
  let value = ref false in
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "shared" (fun () ->
      incr probes;
      !value);
  Checker.register_sampler checker "own" (fun () -> false);
  Checker.add_property_text checker ~name:"p1" "G shared";
  Checker.add_property_text checker ~name:"p2" "F (shared & own)";
  value := true;
  Checker.step checker;
  Alcotest.(check int) "one probe per trigger, not one per property" 1 !probes;
  Checker.step checker;
  Alcotest.(check int) "still one probe per trigger" 2 !probes

let test_stateful_prop_advances_once () =
  (* a rising-edge detector shared by two properties must see each edge
     exactly once per trigger; double probing would eat the edge *)
  let signal = ref false in
  let checker = Checker.create ~name:"t" () in
  Checker.register_proposition checker
    (Proposition.rose "edge" (Proposition.make "sig" (fun () -> !signal)));
  Checker.add_property_text checker ~name:"p1" "F edge";
  Checker.add_property_text checker ~name:"p2" "F edge";
  signal := false;
  Checker.step checker;
  signal := true;
  Checker.step checker;
  check_verdict "p1 saw the edge" Verdict.True (Checker.verdict checker "p1");
  check_verdict "p2 saw the same edge" Verdict.True
    (Checker.verdict checker "p2")

let test_trace_sample_order () =
  let bus = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  let checker = Checker.create ~trace:bus ~name:"t" () in
  List.iter
    (fun name -> Checker.register_sampler checker name (fun () -> true))
    [ "zeta"; "alpha"; "mid" ];
  Checker.add_property_text checker ~name:"p1" "G (zeta & mid)";
  Checker.add_property_text checker ~name:"p2" "G (alpha & mid)";
  Checker.step checker;
  let sampled =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Sample { prop; _ } -> Some prop
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list string))
    "each proposition once per trigger, sorted by name"
    [ "alpha"; "mid"; "zeta" ] sampled

(* --- active-set stepping ------------------------------------------------- *)

let test_settled_property_skipped () =
  let probes = ref 0 in
  let a = ref false in
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> !a);
  Checker.register_sampler checker "only_p1" (fun () ->
      incr probes;
      false);
  Checker.add_property_text checker ~name:"p1" "F only_p1";
  Checker.add_property_text checker ~name:"p2" "F a";
  Alcotest.(check int) "both active" 2 (Checker.active_properties checker);
  Alcotest.(check (list string))
    "both supports sampled" [ "a"; "only_p1" ]
    (Checker.sampled_propositions checker);
  a := true;
  Checker.step checker;
  check_verdict "p2 settled" Verdict.True (Checker.verdict checker "p2");
  Alcotest.(check int) "p2 dropped from the plan" 1
    (Checker.active_properties checker);
  Alcotest.(check (list string))
    "a no longer sampled" [ "only_p1" ]
    (Checker.sampled_propositions checker);
  let before = !probes in
  Checker.step checker;
  Alcotest.(check int) "pending property still sampled" (before + 1) !probes;
  (* verdict bookkeeping must survive the skip *)
  check_verdict "settled verdict stable" Verdict.True
    (Checker.verdict checker "p2");
  Alcotest.(check (list string))
    "verdict order is insertion order" [ "p1"; "p2" ]
    (List.map fst (Checker.verdicts checker))

let test_all_settled_stops_sampling () =
  let probes = ref 0 in
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () ->
      incr probes;
      true);
  Checker.add_property_text checker ~name:"p" "F a";
  Checker.step checker;
  let before = !probes in
  Checker.step checker;
  Checker.step checker;
  Alcotest.(check int) "no probes once every monitor settled" before !probes;
  Alcotest.(check int) "empty active set" 0 (Checker.active_properties checker);
  Alcotest.(check int) "triggers still counted" 3 (Checker.steps checker)

let test_late_trace_publishes_final_verdict () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Checker.add_property_text checker ~name:"p" "F a";
  Checker.step checker;
  check_verdict "settled untraced" Verdict.True (Checker.verdict checker "p");
  (* attach a bus after the monitor settled: the verdict is still owed *)
  let bus = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  Checker.set_trace checker bus;
  Checker.step checker;
  Checker.step checker;
  let changes =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Verdict_change { property; verdict } -> Some (property, verdict)
        | _ -> None)
      (events ())
  in
  Alcotest.(check int) "published exactly once" 1 (List.length changes);
  Alcotest.(check int) "then dropped from the plan" 0
    (Checker.active_properties checker)

let test_reset_replays_identically () =
  let script =
    [ (false, false, false); (true, false, false); (false, true, true);
      (true, true, false); (false, false, true) ]
  in
  let checker, current =
    plan_checker_of
      [
        Sctc.Prop.parse_exn "G (a -> F[2] b)";
        Sctc.Prop.parse_exn "c U[3] b";
        Sctc.Prop.parse_exn "F (a & X c)";
      ]
  in
  let run () =
    List.concat_map
      (fun triple ->
        current := triple;
        Checker.step checker;
        List.map snd (Checker.verdicts checker))
      script
  in
  let first = run () in
  Checker.reset checker;
  let second = run () in
  Alcotest.(check int) "same length" (List.length first) (List.length second);
  List.iter2 (fun a b -> check_verdict "replay verdict" a b) first second

(* --- 4-domain table stress ----------------------------------------------- *)

(* Every domain steps the same property set over the same scripted
   stimulus; each fills its own AR-automaton tables while hash-consing
   formulas through the shared sharded table. The oracle is the plain
   single-domain reference stepper. *)

let stress_formulas () =
  List.map Sctc.Prop.parse_exn
    [
      "G (a -> F[4] b)";
      "a U[6] (b | c)";
      "G[9] (a | !c)";
      "F[7] (a & X b)";
      "c R[5] (a | b)";
      "G (c -> X (b U[3] a))";
      "F (a & F[2] (b & F[2] c))";
      "G ((a & !b) -> F[5] (b | c))";
    ]

let stress_script rounds =
  (* deterministic LCG over the three propositions *)
  let state = ref 12345 in
  List.init rounds (fun _ ->
      state := ((!state * 1103515245) + 12347) land 0x3FFFFFFF;
      let bits = !state lsr 13 in
      (bits land 1 = 1, bits land 2 = 2, bits land 4 = 4))

(* the verdicts, and the table entries the domain filled for them *)
let run_stress_checker formulas script =
  let fills = Ar_automaton.fills () in
  let checker, current = plan_checker_of formulas in
  let verdicts =
    List.concat_map
      (fun triple ->
        current := triple;
        Checker.step checker;
        List.map snd (Checker.verdicts checker))
      script
  in
  (verdicts, Ar_automaton.fills () - fills)

let test_four_domain_cache_stress () =
  let formulas = stress_formulas () in
  let script = stress_script 400 in
  let oracle =
    let per_formula =
      List.map (fun f -> Array.of_list (reference_verdicts f script)) formulas
    in
    List.concat_map
      (fun step -> List.map (fun v -> v.(step)) per_formula)
      (List.init (List.length script) (fun i -> i))
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> run_stress_checker formulas script))
  in
  let results = List.map Domain.join domains in
  List.iteri
    (fun d (result, _) ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d verdict count" d)
        (List.length oracle) (List.length result);
      List.iter2
        (fun expected got ->
          check_verdict (Printf.sprintf "domain %d verdict" d) expected got)
        oracle result)
    results;
  (* the same stimulus takes the same entries on every domain, each
     filled once: fewer fills than monitor steps *)
  let fills = List.map snd results in
  let first = List.hd fills in
  List.iteri
    (fun d count ->
      Alcotest.(check int) (Printf.sprintf "domain %d fills" d) first count)
    fills;
  Alcotest.(check bool)
    (Printf.sprintf "%d fills, fewer than the %d monitor steps" first
       (List.length oracle))
    true
    (first > 0 && first < List.length oracle)

let () =
  Alcotest.run "trigger-plan"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_plan_matches_progression;
          QCheck_alcotest.to_alcotest qcheck_plan_multi_property;
        ] );
      ( "shared-samples",
        [
          Alcotest.test_case "shared proposition probed once" `Quick
            test_shared_prop_probed_once;
          Alcotest.test_case "stateful proposition advances once" `Quick
            test_stateful_prop_advances_once;
          Alcotest.test_case "sample trace order" `Quick test_trace_sample_order;
        ] );
      ( "active-set",
        [
          Alcotest.test_case "settled property skipped" `Quick
            test_settled_property_skipped;
          Alcotest.test_case "all settled stops sampling" `Quick
            test_all_settled_stops_sampling;
          Alcotest.test_case "late trace publishes final verdict" `Quick
            test_late_trace_publishes_final_verdict;
          Alcotest.test_case "reset replays identically" `Quick
            test_reset_replays_identically;
        ] );
      ( "transition-cache",
        [
          Alcotest.test_case "4-domain stress vs single-domain oracle" `Quick
            test_four_domain_cache_stress;
        ] );
    ]
