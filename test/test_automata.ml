(* Tests for the AR-automata layer. The centerpiece is an independent
   finite-trace FLTL semantics (strong closure) used as an oracle: formula
   progression plus strong finalization and the explicit AR-automaton must
   agree with it on random formulas and traces, and the IL guard scan over
   the round-tripped text must agree with the on-the-fly monitor. *)

module F = Formula

(* ----------------------------------------------------------------------- *)
(* Reference semantics: FLTL over finite traces with the empty-suffix
   convention (LTL over possibly-empty words): position [n] denotes the
   empty suffix, where propositions/X/F/U are false and G/R are true.
   [holds] is memoized per (position, formula id) because the naive
   recursion is exponential for nested until/release. *)

let holds_memo trace =
  let n = Array.length trace in
  let memo : (int * int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec holds i f =
    let key = (i, F.hash f) in
    match Hashtbl.find_opt memo key with
    | Some value -> value
    | None ->
      let value = compute i f in
      Hashtbl.replace memo key value;
      value
  and compute i f =
    assert (i <= n);
    if i = n then
      (* empty suffix *)
      match f.F.node with
      | F.True -> true
      | F.False -> false
      | F.Prop _ -> false
      | F.Not g -> not (holds i g)
      | F.And (a, b) -> holds i a && holds i b
      | F.Or (a, b) -> holds i a || holds i b
      | F.Next _ -> false
      | F.Finally _ -> false
      | F.Globally _ -> true
      | F.Until _ -> false
      | F.Release _ -> true
    else
      match f.F.node with
      | F.True -> true
      | F.False -> false
      | F.Prop name -> trace.(i) name
      | F.Not g -> not (holds i g)
      | F.And (a, b) -> holds i a && holds i b
      | F.Or (a, b) -> holds i a || holds i b
      | F.Next g -> holds (i + 1) g
      | F.Finally (bound, g) ->
        (* witnesses must lie on real positions *)
        let last =
          match bound with None -> n - 1 | Some b -> min (n - 1) (i + b)
        in
        let rec exists j = j <= last && (holds j g || exists (j + 1)) in
        exists i
      | F.Globally (bound, g) ->
        let last =
          match bound with None -> n - 1 | Some b -> min (n - 1) (i + b)
        in
        let rec forall j = j > last || (holds j g && forall (j + 1)) in
        forall i
      | F.Until (bound, l, r) ->
        let last =
          match bound with None -> n - 1 | Some b -> min (n - 1) (i + b)
        in
        let rec exists k =
          if k > last then false
          else if holds k r then
            let rec prefix j = j >= k || (holds j l && prefix (j + 1)) in
            prefix i
          else exists (k + 1)
        in
        exists i
      | F.Release (bound, l, r) ->
        (* dual of until *)
        not (holds i (F.until bound (F.not_ l) (F.not_ r)))
  in
  holds

let holds trace i f = holds_memo trace i f

(* Run a trace through progression with strong end-of-trace closure. *)
let progression_verdict formula trace =
  let state = ref formula in
  Array.iter (fun valuation -> state := Progression.step !state valuation) trace;
  Progression.finalize ~strong:true !state

let bool_of_verdict = function
  | Verdict.True -> true
  | Verdict.False -> false
  | Verdict.Pending -> assert false

(* ----------------------------------------------------------------------- *)

let valuation_of_triple (a, b, c) = function
  | "a" -> a
  | "b" -> b
  | "c" -> c
  | _ -> false

let run_progression formula triples =
  progression_verdict formula
    (Array.of_list (List.map valuation_of_triple triples))

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

let parse text = Sctc.Prop.parse_exn ~syntax:`Fltl text

(* --- directed progression tests ---------------------------------------- *)

let t = true
and f = false

let test_globally_violation () =
  check_verdict "G a violated at third step" Verdict.False
    (run_progression (parse "G a") [ (t, f, f); (t, f, f); (f, f, f) ]);
  check_verdict "G a pending while true" Verdict.Pending
    (let st = ref (parse "G a") in
     List.iter
       (fun v -> st := Progression.step !st (valuation_of_triple v))
       [ (t, f, f); (t, f, f) ];
     Progression.verdict !st)

let test_finally_validation () =
  check_verdict "F b validated" Verdict.True
    (run_progression (parse "F b") [ (t, f, f); (f, t, f) ]);
  check_verdict "F b fails on empty-of-b trace (strong)" Verdict.False
    (run_progression (parse "F b") [ (t, f, f); (f, f, f) ])

let test_bounded_finally () =
  (* F[1] b: b must hold at step 0 or 1 *)
  check_verdict "within bound" Verdict.True
    (run_progression (parse "F[1] b") [ (f, f, f); (f, t, f) ]);
  check_verdict "misses bound" Verdict.False
    (run_progression (parse "F[1] b") [ (f, f, f); (f, f, f); (f, t, f) ])

let test_bounded_globally () =
  check_verdict "G[2] a holds for 3 steps then free" Verdict.True
    (run_progression (parse "G[2] a") [ (t, f, f); (t, f, f); (t, f, f) ]);
  check_verdict "G[2] a violated inside window" Verdict.False
    (run_progression (parse "G[2] a") [ (t, f, f); (f, f, f) ])

let test_next () =
  check_verdict "X b true" Verdict.True
    (run_progression (parse "X b") [ (f, f, f); (f, t, f) ]);
  check_verdict "X b false" Verdict.False
    (run_progression (parse "X b") [ (f, f, f); (f, f, f) ]);
  check_verdict "X b strong-fails on singleton" Verdict.False
    (run_progression (parse "X b") [ (f, t, f) ])

let test_until () =
  check_verdict "a U b satisfied" Verdict.True
    (run_progression (parse "a U b") [ (t, f, f); (t, f, f); (f, t, f) ]);
  check_verdict "a U b broken" Verdict.False
    (run_progression (parse "a U b") [ (t, f, f); (f, f, f); (f, t, f) ])

let test_paper_shape () =
  (* F (read -> F[2] ok) with read=a, ok=b *)
  let formula = parse "F (a -> F[2] b)" in
  check_verdict "request answered in window" Verdict.True
    (run_progression formula [ (f, f, f); (t, f, f); (f, f, f); (f, t, f) ])

let test_finalize_weak_vs_strong () =
  let st = ref (parse "F b") in
  st := Progression.step !st (valuation_of_triple (f, f, f));
  check_verdict "pending without closure" Verdict.Pending
    (Progression.finalize !st);
  check_verdict "strong closure fails" Verdict.False
    (Progression.finalize ~strong:true !st);
  let st2 = ref (parse "G a") in
  st2 := Progression.step !st2 (valuation_of_triple (t, f, f));
  check_verdict "G survives strong closure" Verdict.True
    (Progression.finalize ~strong:true !st2)

(* --- oracle equivalence (qcheck) ---------------------------------------- *)

let gen_formula =
  let open QCheck.Gen in
  let prop_name = oneofl [ "a"; "b"; "c" ] in
  let bound = oneof [ return None; map (fun n -> Some n) (int_bound 3) ] in
  sized_size (int_bound 12) @@ QCheck.Gen.fix (fun self n ->
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

let gen_trace =
  let open QCheck.Gen in
  list_size (int_range 1 8) (triple bool bool bool)

let arbitrary_case =
  QCheck.make
    ~print:(fun (formula, trace) ->
      Printf.sprintf "%s on %s" (F.to_string formula)
        (String.concat ";"
           (List.map
              (fun (a, b, c) -> Printf.sprintf "(%b,%b,%b)" a b c)
              trace)))
    QCheck.Gen.(pair gen_formula gen_trace)

let qcheck_progression_matches_semantics =
  QCheck.Test.make ~name:"progression+strong-close == trace semantics"
    ~count:1000 arbitrary_case (fun (formula, triples) ->
      let trace = Array.of_list (List.map valuation_of_triple triples) in
      let reference = holds trace 0 formula in
      let computed = bool_of_verdict (progression_verdict formula trace) in
      reference = computed)

let qcheck_explicit_matches_progression =
  QCheck.Test.make ~name:"explicit automaton == progression" ~count:300
    arbitrary_case (fun (formula, triples) ->
      match Ar_automaton.synthesize ~max_states:2_000 formula with
      | exception Ar_automaton.Too_large _ ->
        (* independent bounded counters legitimately blow up the explicit
           automaton (the paper's TB-100000 effect); skip such cases *)
        true
      | automaton ->
      let state = ref (Ar_automaton.initial automaton) in
      let obligation = ref formula in
      List.for_all
        (fun triple ->
          let valuation = valuation_of_triple triple in
          let mask = Ar_automaton.mask_of_valuation automaton valuation in
          state := Ar_automaton.next automaton !state mask;
          obligation := Progression.step !obligation valuation;
          let kind_verdict =
            match Ar_automaton.kind automaton !state with
            | Ar_automaton.Accept -> Verdict.True
            | Ar_automaton.Reject -> Verdict.False
            | Ar_automaton.Pend -> Verdict.Pending
          in
          Verdict.equal kind_verdict (Progression.verdict !obligation))
        triples)

let qcheck_il_monitor_matches_formula_monitor =
  QCheck.Test.make ~name:"IL monitor == on-the-fly monitor" ~count:200
    arbitrary_case (fun (formula, triples) ->
      match Ar_automaton.synthesize ~max_states:2_000 formula with
      | exception Ar_automaton.Too_large _ -> true
      | automaton ->
        let on_the_fly = Monitor.of_formula ~name:"otf" formula in
        let support = Monitor.support on_the_fly in
        let map = Array.init (Array.length support) Fun.id in
        (* the IL side steps the guard scan over the round-tripped text *)
        let il = Il.parse (Il.to_string (Il.of_automaton ~name:"m" automaton)) in
        let state = ref il.Il.initial in
        List.for_all
          (fun triple ->
            let valuation = valuation_of_triple triple in
            let v1 =
              Monitor.step_indexed on_the_fly
                ~samples:(Array.map valuation support) ~map
            in
            let mask = ref 0 in
            Array.iteri
              (fun i prop -> if valuation prop then mask := !mask lor (1 lsl i))
              il.Il.props;
            state := Il.next il !state !mask;
            let v2 =
              match il.Il.states.(!state).Il.kind with
              | Il.Accept -> Verdict.True
              | Il.Reject -> Verdict.False
              | Il.Pend -> Verdict.Pending
            in
            Verdict.equal v1 v2)
          triples)

(* --- explicit automaton structure --------------------------------------- *)

let test_bounded_automaton_size () =
  (* F[20] p: one countdown obligation per remaining bound + accept/reject *)
  let automaton = Ar_automaton.synthesize (parse "F[20] p") in
  let states = Ar_automaton.num_states automaton in
  Alcotest.(check bool) "countdown states present" true (states >= 21);
  Alcotest.(check bool) "no blowup" true (states <= 24)

let test_automaton_growth_with_bound () =
  let size b =
    Ar_automaton.num_states
      (Ar_automaton.synthesize (parse (Printf.sprintf "F[%d] p" b)))
  in
  Alcotest.(check bool) "monotone growth" true (size 50 > size 10);
  Alcotest.(check bool) "roughly linear" true (size 50 - size 10 >= 35)

let test_too_large () =
  match Ar_automaton.synthesize ~max_states:10 (parse "F[100] p") with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Ar_automaton.Too_large n ->
    Alcotest.(check bool) "count reported" true (n > 10)

(* a failed synthesis is memoized like a success: the second over-cap
   call re-raises the same count as a hit, without exploring again *)
let test_memo_caches_too_large () =
  let formula = parse "F[150] p" in
  let attempt () =
    match Ar_automaton.synthesize_memo ~max_states:10 formula with
    | _ -> Alcotest.fail "expected Too_large"
    | exception Ar_automaton.Too_large n -> n
  in
  let before = Ar_automaton.cache_stats () in
  let first = attempt () in
  let middle = Ar_automaton.cache_stats () in
  let second = attempt () in
  let after = Ar_automaton.cache_stats () in
  Alcotest.(check int) "first call misses" 1
    (middle.Ar_automaton.cache_misses - before.Ar_automaton.cache_misses);
  Alcotest.(check int) "same count re-raised" first second;
  Alcotest.(check int) "second call leaves misses unchanged"
    middle.Ar_automaton.cache_misses after.Ar_automaton.cache_misses;
  Alcotest.(check int) "second call is a hit" 1
    (after.Ar_automaton.cache_hits - middle.Ar_automaton.cache_hits);
  (* the cap is part of the key: a larger one synthesizes afresh *)
  let automaton, fresh = Ar_automaton.synthesize_memo ~max_states:1000 formula in
  Alcotest.(check bool) "larger cap synthesizes" true fresh;
  Alcotest.(check bool) "larger cap holds the countdown" true
    (Ar_automaton.num_states automaton > 150)

let test_absorbing_states () =
  let automaton = Ar_automaton.synthesize (parse "F p") in
  let accept = ref None in
  for s = 0 to Ar_automaton.num_states automaton - 1 do
    if Ar_automaton.kind automaton s = Ar_automaton.Accept then
      accept := Some s
  done;
  match !accept with
  | None -> Alcotest.fail "no accept state"
  | Some s ->
    for mask = 0 to (1 lsl Ar_automaton.num_props automaton) - 1 do
      Alcotest.(check int) "absorbing" s (Ar_automaton.next automaton s mask)
    done

(* --- cubes ---------------------------------------------------------------- *)

let test_cube_basic () =
  let cube = Cube.of_string "1-0" in
  Alcotest.(check bool) "matches 001" true (Cube.matches cube 0b001);
  Alcotest.(check bool) "matches 011" true (Cube.matches cube 0b011);
  Alcotest.(check bool) "rejects 000" false (Cube.matches cube 0b000);
  Alcotest.(check bool) "rejects 101" false (Cube.matches cube 0b101);
  Alcotest.(check (list int)) "minterms" [ 0b001; 0b011 ] (Cube.minterms cube);
  Alcotest.(check string) "round trip" "1-0" (Cube.to_string cube)

let test_cube_minimize_full () =
  (* all four minterms over two props collapse to a single dash-dash cube *)
  match Cube.minimize ~width:2 [ 0; 1; 2; 3 ] with
  | [ cube ] -> Alcotest.(check string) "one cube" "--" (Cube.to_string cube)
  | cubes ->
    Alcotest.failf "expected 1 cube, got %d" (List.length cubes)

let qcheck_cube_minimize_exact =
  QCheck.Test.make ~name:"cube cover == input minterm set" ~count:300
    QCheck.(pair (int_range 1 5) (list_of_size (QCheck.Gen.int_range 0 12) small_nat))
    (fun (width, raw) ->
      let module IS = Set.Make (Int) in
      let masks =
        IS.elements (IS.of_list (List.map (fun m -> m land ((1 lsl width) - 1)) raw))
      in
      let cubes = Cube.minimize ~width masks in
      let covered = ref IS.empty in
      List.iter
        (fun cube ->
          List.iter (fun m -> covered := IS.add m !covered) (Cube.minterms cube))
        cubes;
      IS.equal !covered (IS.of_list masks))

(* --- IL -------------------------------------------------------------------- *)

let test_il_roundtrip () =
  let automaton = Ar_automaton.synthesize (parse "G (a -> F[3] b)") in
  let il = Il.of_automaton ~name:"demo" automaton in
  let il' = Il.parse (Il.to_string il) in
  Alcotest.(check string) "name preserved" il.Il.name il'.Il.name;
  Alcotest.(check int) "same state count" (Array.length il.Il.states)
    (Array.length il'.Il.states);
  (* behavioural equality on every state/mask *)
  let masks = 1 lsl Array.length il.Il.props in
  Array.iteri
    (fun state _ ->
      for mask = 0 to masks - 1 do
        Alcotest.(check int)
          (Printf.sprintf "next(%d,%d)" state mask)
          (Il.next il state mask) (Il.next il' state mask)
      done)
    il.Il.states;
  Alcotest.(check bool) "transitions counted" true (Il.num_transitions il > 0)

let test_monitor_absorbing_and_reset () =
  let monitor = Monitor.of_formula ~name:"m" (parse "F a") in
  let step value =
    Monitor.step_indexed monitor ~samples:[| value |] ~map:[| 0 |]
  in
  check_verdict "pending" Verdict.Pending (step false);
  check_verdict "validated" Verdict.True (step true);
  check_verdict "stays validated" Verdict.True (step false);
  Alcotest.(check int) "steps counted" 3 (Monitor.steps monitor);
  Monitor.reset monitor;
  Alcotest.(check int) "steps reset" 0 (Monitor.steps monitor);
  check_verdict "pending again" Verdict.Pending (Monitor.verdict monitor)

let suite_progression =
  [
    Alcotest.test_case "globally violation" `Quick test_globally_violation;
    Alcotest.test_case "finally validation" `Quick test_finally_validation;
    Alcotest.test_case "bounded finally" `Quick test_bounded_finally;
    Alcotest.test_case "bounded globally" `Quick test_bounded_globally;
    Alcotest.test_case "next" `Quick test_next;
    Alcotest.test_case "until" `Quick test_until;
    Alcotest.test_case "paper property shape" `Quick test_paper_shape;
    Alcotest.test_case "finalize weak vs strong" `Quick
      test_finalize_weak_vs_strong;
    QCheck_alcotest.to_alcotest qcheck_progression_matches_semantics;
  ]

let suite_automaton =
  [
    Alcotest.test_case "bounded automaton size" `Quick
      test_bounded_automaton_size;
    Alcotest.test_case "growth with bound" `Quick
      test_automaton_growth_with_bound;
    Alcotest.test_case "too large" `Quick test_too_large;
    Alcotest.test_case "memo caches Too_large" `Quick
      test_memo_caches_too_large;
    Alcotest.test_case "absorbing states" `Quick test_absorbing_states;
    QCheck_alcotest.to_alcotest qcheck_explicit_matches_progression;
  ]

let suite_il =
  [
    Alcotest.test_case "cube basics" `Quick test_cube_basic;
    Alcotest.test_case "cube minimize full set" `Quick test_cube_minimize_full;
    QCheck_alcotest.to_alcotest qcheck_cube_minimize_exact;
    Alcotest.test_case "IL round trip" `Quick test_il_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_il_monitor_matches_formula_monitor;
    Alcotest.test_case "monitor absorbing and reset" `Quick
      test_monitor_absorbing_and_reset;
  ]

let () =
  Alcotest.run "automata"
    [
      ("progression", suite_progression);
      ("ar-automaton", suite_automaton);
      ("il-and-monitor", suite_il);
    ]
