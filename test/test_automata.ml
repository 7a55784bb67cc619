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

(* Tables are kept per (root property, domain): a registration of a
   property on this domain finds the entries an earlier exploration of
   its table filled. An aborted exploration is charged and keeps what it
   filled, so asking again under the same cap stops at once with the same
   count; an explicit registration explores the rest and is charged for
   it, and once the table is complete, a registration under either engine
   fills nothing and charges no synthesis time. *)
let test_second_registration_fills_nothing () =
  let formula = parse "F[150] p" in
  let table = Ar_automaton.shared formula in
  (* the outcome ([Error count] for [Too_large]), the entries filled and
     the seconds charged to the table *)
  let explore () =
    let before = Ar_automaton.fills ()
    and seconds = Ar_automaton.build_seconds table in
    let outcome =
      match Ar_automaton.explore ~max_states:100 table with
      | () -> Ok ()
      | exception Ar_automaton.Too_large n -> Error n
    in
    (outcome, Ar_automaton.fills () - before,
     Ar_automaton.build_seconds table -. seconds)
  in
  (* the entries filled and the synthesis seconds charged to a checker *)
  let register engine =
    let checker = Sctc.Checker.create ~name:"t" () in
    Sctc.Checker.register_sampler checker "p" (fun () -> false);
    let before = Ar_automaton.fills () in
    Sctc.Checker.add_property ~engine checker ~name:"p" formula;
    (Ar_automaton.fills () - before, Sctc.Checker.synthesis_seconds checker)
  in
  let first =
    match explore () with
    | Error count, fills, seconds ->
      Alcotest.(check bool) "the aborted exploration filled entries" true
        (fills > 0);
      Alcotest.(check bool) "and is charged" true (seconds > 0.0);
      count
    | Ok (), _, _ -> Alcotest.fail "expected Too_large"
  in
  (match explore () with
  | Error second, fills, _ ->
    Alcotest.(check int) "same count re-raised" first second;
    Alcotest.(check int) "re-raised without filling" 0 fills
  | Ok (), _, _ -> Alcotest.fail "expected Too_large");
  let fills, seconds = register Sctc.Engine.Explicit in
  Alcotest.(check bool) "an explicit registration explores the rest" true
    (fills > 0);
  Alcotest.(check bool) "and is charged" true (seconds > 0.0);
  List.iter
    (fun engine ->
      let label = Sctc.Engine.to_string engine in
      let fills, seconds = register engine in
      Alcotest.(check int) (label ^ " fills nothing") 0 fills;
      Alcotest.(check (float 0.0)) (label ^ " charges nothing") 0.0 seconds)
    Sctc.Engine.all;
  Alcotest.(check bool) "the shared table holds the countdown" true
    (Ar_automaton.num_states (Ar_automaton.shared formula) > 150)

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

(* --- the lazy table (qcheck) --------------------------------------------- *)

(* A random formula over a/b/c, joined to a clause over [width] more
   propositions w00.. so that all of them are in the support: width 0
   keeps the support within synthesis range, 13-17 makes it 13-20, where
   rows are hashed. A step sets each w-proposition with probability
   1/(width+1), so their disjunction is neither always nor never true. *)
type lazy_case = {
  formula : F.t;
  width : int;
  trace : ((bool * bool * bool) * bool array) list;
}

let gen_lazy_case =
  let open QCheck.Gen in
  oneof [ return 0; int_range 13 17 ] >>= fun width ->
  gen_formula >>= fun base ->
  let wide = List.init width (fun i -> F.prop (Printf.sprintf "w%02d" i)) in
  let any = List.fold_left F.or_ F.fls wide in
  (if width = 0 then return base
   else
     oneofl
       [
         F.and_ base (F.globally None any);
         F.until None any base;
         F.or_ base (F.finally (Some 2) (F.and_ any (F.next (F.not_ any))));
       ])
  >>= fun formula ->
  let step =
    pair (triple bool bool bool)
      (array_repeat width (map (fun n -> n = 0) (int_bound width)))
  in
  map (fun trace -> { formula; width; trace }) (list_size (int_range 1 8) step)

let print_lazy_case case =
  Printf.sprintf "%s (width %d) on %s" (F.to_string case.formula) case.width
    (String.concat ";"
       (List.map
          (fun ((a, b, c), wide) ->
            Printf.sprintf "(%b,%b,%b|%s)" a b c
              (String.concat ""
                 (Array.to_list
                    (Array.map (fun v -> if v then "1" else "0") wide))))
          case.trace))

let valuation_of_step (triple, wide) name =
  if String.length name = 3 && name.[0] = 'w' then
    wide.(int_of_string (String.sub name 1 2))
  else valuation_of_triple triple name

(* Two monitors over one root share the calling domain's table: one reads
   the trace forwards, the other backwards, stepped alternately. Each
   must match plain progression per step, weakly and strongly finalized;
   the forward one also matches a synthesized automaton (when the
   support is small enough to synthesize), and replays identically
   after [reset]. *)
let qcheck_lazy_table_matches_oracles =
  QCheck.Test.make ~name:"lazy monitor == synthesized == progression"
    ~count:300 (QCheck.make ~print:print_lazy_case gen_lazy_case)
    (fun case ->
      let forward = List.map valuation_of_step case.trace in
      let backward = List.rev forward in
      let one = Monitor.of_formula ~name:"one" case.formula in
      let two = Monitor.of_formula ~name:"two" case.formula in
      let support = Monitor.support one in
      let map = Array.init (Array.length support) Fun.id in
      let step monitor valuation =
        Monitor.step_indexed monitor ~samples:(Array.map valuation support) ~map
      in
      (* a small cap keeps the oracle cheap: exploring nested until and
         release obligations costs about ten times more per doubling of
         the states explored *)
      let automaton =
        if case.width > 0 then None
        else
          match Ar_automaton.synthesize ~max_states:64 case.formula with
          | automaton -> Some automaton
          | exception Ar_automaton.Too_large _ -> None
      in
      let state =
        ref (Option.fold ~none:0 ~some:Ar_automaton.initial automaton)
      in
      let matches_obligation monitor verdict obligation =
        Verdict.equal verdict (Progression.verdict obligation)
        && Verdict.equal (Monitor.finalize monitor)
             (Progression.finalize obligation)
        && Verdict.equal
             (Monitor.finalize ~strong:true monitor)
             (Progression.finalize ~strong:true obligation)
      in
      let matches_automaton valuation verdict =
        match automaton with
        | None -> true
        | Some automaton ->
          state :=
            Ar_automaton.next automaton !state
              (Ar_automaton.mask_of_valuation automaton valuation);
          let expected =
            match Ar_automaton.kind automaton !state with
            | Ar_automaton.Accept -> Verdict.True
            | Ar_automaton.Reject -> Verdict.False
            | Ar_automaton.Pend -> Verdict.Pending
          in
          Verdict.equal verdict expected
      in
      let obligation_one = ref case.formula
      and obligation_two = ref case.formula in
      let first_run =
        List.map2
          (fun v1 v2 ->
            let verdict_one = step one v1 in
            obligation_one := Progression.step !obligation_one v1;
            let verdict_two = step two v2 in
            obligation_two := Progression.step !obligation_two v2;
            let ok =
              matches_obligation one verdict_one !obligation_one
              && matches_obligation two verdict_two !obligation_two
              && matches_automaton v1 verdict_one
            in
            (ok, verdict_one))
          forward backward
      in
      Monitor.reset one;
      let replay = List.map (step one) forward in
      List.for_all fst first_run
      && List.equal Verdict.equal (List.map snd first_run) replay
      && Monitor.steps one = List.length forward)

(* A table is filled only on the domain that created it; a filled entry
   reads from any domain. *)
let test_fill_from_another_domain () =
  let monitor = Monitor.of_formula ~name:"m" (parse "G (a -> F[3] b)") in
  let step () =
    Monitor.step_indexed monitor ~samples:[| true; false |] ~map:[| 0; 1 |]
  in
  (match Domain.join (Domain.spawn step) with
  | (_ : Verdict.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let mentions needle =
      let n = String.length needle in
      let rec at i =
        i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1))
      in
      at 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S names the domain" msg) true
      (mentions "domain"));
  Alcotest.(check int) "the failed step is not counted" 0
    (Monitor.steps monitor);
  let verdict = step () in
  Monitor.reset monitor;
  check_verdict "the filled entry reads from another domain" verdict
    (Domain.join (Domain.spawn step))

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
    Alcotest.test_case "second registration fills nothing" `Quick
      test_second_registration_fills_nothing;
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
      ( "lazy-table",
        [
          QCheck_alcotest.to_alcotest qcheck_lazy_table_matches_oracles;
          Alcotest.test_case "fill from another domain" `Quick
            test_fill_from_another_domain;
        ] );
    ]
