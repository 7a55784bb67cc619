(* The IL text form and the engine selection.

   - differential qcheck: the list-scan [Il.next] over the textual IL
     round-trip agrees with the [Ar_automaton.next] delta monitors step,
     on every (state, mask) of automata synthesized from random formulas
   - the missing-guard diagnostic names the automaton and spells the
     valuation as a proposition assignment
   - [Engine] string round-trips (the retired "hybrid" and "il" names are
     unknown) and the checker's [Auto] fallback to on-the-fly
   - [Auto] above the state cap: fresh checkers pay the failed synthesis
     once, and verdicts match [Otf] and [Explicit] (at a larger cap) per
     step *)

module Checker = Sctc.Checker
module Engine = Sctc.Engine
module F = Formula

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

let contains msg needle =
  let len = String.length needle in
  let rec probe i =
    i + len <= String.length msg
    && (String.sub msg i len = needle || probe (i + 1))
  in
  probe 0

(* --- random formulas over a/b/c (same shape as test_trigger_plan) ------ *)

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

(* --- IL text vs the automaton ------------------------------------------ *)

(* keep the synthesized automata small: the oracle comparison is per
   (state, mask), and [Il.of_automaton] pays a cube-minimization per
   state, so big automata only add runtime, not coverage *)
let automaton_of formula =
  match Ar_automaton.synthesize ~max_states:400 formula with
  | automaton -> automaton
  | exception Ar_automaton.Too_large _ -> QCheck.assume_fail ()

let arbitrary_formula =
  QCheck.make ~print:F.to_string gen_formula

let qcheck_il_text_next =
  QCheck.Test.make ~name:"IL text Il.next == Ar_automaton.next" ~count:100
    arbitrary_formula (fun formula ->
      let automaton = automaton_of formula in
      let il = Il.parse (Il.to_string (Il.of_automaton ~name:"t" automaton)) in
      let width = Ar_automaton.num_props automaton in
      Alcotest.(check int) "state count"
        (Ar_automaton.num_states automaton)
        (Array.length il.Il.states);
      for state = 0 to Ar_automaton.num_states automaton - 1 do
        for mask = 0 to (1 lsl width) - 1 do
          Alcotest.(check int)
            (Printf.sprintf "state %d mask %d" state mask)
            (Ar_automaton.next automaton state mask)
            (Il.next il state mask)
        done
      done;
      true)

let qcheck_il_roundtrip =
  QCheck.Test.make ~name:"IL pp/parse round trip preserves next" ~count:100
    arbitrary_formula (fun formula ->
      let automaton = automaton_of formula in
      let il = Il.of_automaton ~name:"rt" automaton in
      let il' = Il.parse (Il.to_string il) in
      Alcotest.(check string) "name" il.Il.name il'.Il.name;
      Alcotest.(check int) "initial" il.Il.initial il'.Il.initial;
      let width = Array.length il.Il.props in
      for state = 0 to Array.length il.Il.states - 1 do
        for mask = 0 to (1 lsl width) - 1 do
          Alcotest.(check int)
            (Printf.sprintf "state %d mask %d" state mask)
            (Il.next il state mask) (Il.next il' state mask)
        done
      done;
      true)

(* a pending state whose guards do not cover mask 0 (a=0 b=0): the
   diagnostic must name the automaton and spell the valuation out *)
let missing_guard_il =
  Il.parse
    "automaton gap {\n\
    \  props: a, b;\n\
    \  initial: 0;\n\
    \  state 0 pending {\n\
    \    on 1- -> 1;\n\
    \  }\n\
    \  state 1 accept {\n\
    \  }\n\
     }"

let test_missing_guard_message () =
  let expect_message next =
    match next () with
    | (_ : int) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg ->
      let mentions needle =
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" msg needle)
          true (contains msg needle)
      in
      mentions "gap";
      mentions "a=0";
      mentions "b=1";
      mentions "mask 2"
  in
  (* mask 2 = a false, b true; only cubes with a=1 are covered *)
  expect_message (fun () -> Il.next missing_guard_il 0 2)

(* --- the engine enum and the checker's Auto fallback -------------------- *)

let test_engine_strings () =
  List.iter
    (fun engine ->
      Alcotest.(check bool)
        (Engine.to_string engine ^ " round-trips")
        true
        (Engine.of_string (Engine.to_string engine) = Some engine))
    Engine.all;
  Alcotest.(check bool) "on-the-fly alias" true
    (Engine.of_string "on-the-fly" = Some Engine.Otf);
  Alcotest.(check bool) "case-insensitive" true
    (Engine.of_string "AUTO" = Some Engine.Auto);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Engine.of_string name = None);
      match Engine.of_string_exn name with
      | (_ : Engine.t) -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument msg ->
        let known = String.concat ", " (List.map Engine.to_string Engine.all) in
        Alcotest.(check bool)
          (Printf.sprintf "%S lists %s" msg known)
          true (contains msg known))
    [ "warp"; "hybrid"; "il" ]

let test_checker_auto_falls_back () =
  let value = ref 0 in
  let checker = Checker.create ~name:"auto" () in
  Checker.register_sampler checker "req" (fun () -> !value mod 17 = 1);
  Checker.register_sampler checker "ack" (fun () -> !value mod 17 = 5);
  (* a state budget far below the bound: Auto must fall back to
     on-the-fly instead of raising Too_large, and still verify correctly *)
  Checker.add_property_text ~engine:Checker.Auto ~max_states:4 checker
    ~name:"p" "G (req -> F[500] ack)";
  let reference = Checker.create ~name:"otf" () in
  Checker.register_sampler reference "req" (fun () -> !value mod 17 = 1);
  Checker.register_sampler reference "ack" (fun () -> !value mod 17 = 5);
  Checker.add_property_text ~engine:Checker.Otf reference ~name:"p"
    "G (req -> F[500] ack)";
  for _ = 1 to 300 do
    incr value;
    Checker.step checker;
    Checker.step reference;
    check_verdict "auto == otf"
      (Checker.verdict reference "p")
      (Checker.verdict checker "p")
  done

let test_checker_opt_accessors () =
  let checker = Checker.create ~name:"opt" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Checker.add_property_text checker ~name:"p" "F a";
  Alcotest.(check bool) "verdict_opt known" true
    (Checker.verdict_opt checker "p" <> None);
  Alcotest.(check bool) "verdict_opt unknown" true
    (Checker.verdict_opt checker "nope" = None);
  Alcotest.(check (option int)) "first_final_at_opt unknown" None
    (Checker.first_final_at_opt checker "nope");
  Checker.step checker;
  Alcotest.(check (option int)) "first_final_at_opt known" (Some 1)
    (Checker.first_final_at_opt checker "p");
  (* the raising twins keep raising, with the property list in the message *)
  (match Checker.verdict checker "nope" with
  | (_ : Verdict.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Checker.first_final_at checker "nope" with
  | (_ : int option) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Auto above the state cap ------------------------------------------- *)

(* twice the auto cap: every registration under [Auto] fails synthesis *)
let over_cap = Sctc.Prop.parse_exn ~syntax:`Fltl "G (a -> F[20000] b)"

(* a request every 17 triggers, answered 4 triggers later while
   [tick < answered_until]; returns a stepper yielding the verdict *)
let over_cap_stepper ?max_states ?(answered_until = max_int) engine =
  let tick = ref 0 in
  let checker = Checker.create ~name:(Engine.to_string engine) () in
  Checker.register_sampler checker "a" (fun () -> !tick mod 17 = 1);
  Checker.register_sampler checker "b" (fun () ->
      !tick mod 17 = 5 && !tick < answered_until);
  Checker.add_property ~engine ?max_states checker ~name:"p" over_cap;
  fun () ->
    incr tick;
    Checker.step checker;
    Checker.verdict checker "p"

(* Fresh checkers re-register the over-cap property, as campaign jobs do.
   The failed synthesis is paid by the first one only: the later ones hit
   the cached failure and step cached on-the-fly transitions, so together
   they build fewer formulas than one capped exploration would. *)
let test_auto_over_cap_pays_once () =
  let constructions () =
    let stats = Formula.cons_stats () in
    stats.Formula.dls_hits + stats.Formula.dls_misses
  in
  let session () =
    let step = over_cap_stepper Engine.Auto in
    for _ = 1 to 300 do
      ignore (step ())
    done
  in
  let misses () = (Ar_automaton.cache_stats ()).Ar_automaton.cache_misses in
  let misses_before = misses () in
  session ();
  let built_before = constructions () in
  for _ = 2 to 50 do
    session ()
  done;
  Alcotest.(check bool) "at most one synthesis miss" true
    (misses () - misses_before <= 1);
  let built = constructions () - built_before in
  Alcotest.(check bool)
    (Printf.sprintf "49 later sessions built %d formulas" built)
    true
    (built < Engine.auto_max_states)

let test_auto_over_cap_verdicts () =
  (* requests go unanswered from trigger 307 on, so the property fails
     20000 triggers later: the comparison covers the verdict change *)
  let answered_until = 300 in
  let auto = over_cap_stepper ~answered_until Engine.Auto in
  let otf = over_cap_stepper ~answered_until Engine.Otf in
  let explicit =
    over_cap_stepper ~answered_until ~max_states:50_000 Engine.Explicit
  in
  let last = ref Verdict.Pending in
  for i = 1 to 20_500 do
    let verdict = auto () in
    if not (Verdict.equal verdict (otf ()) && Verdict.equal verdict (explicit ()))
    then Alcotest.failf "engines disagree at trigger %d" i;
    last := verdict
  done;
  check_verdict "violation reached" Verdict.False !last

let qcheck cases = List.map (QCheck_alcotest.to_alcotest ~verbose:false) cases

let () =
  Alcotest.run "il_table"
    [
      ( "il-table",
        [
          Alcotest.test_case "missing-guard diagnostic" `Quick
            test_missing_guard_message;
        ]
        @ qcheck [ qcheck_il_text_next; qcheck_il_roundtrip ] );
      ( "engine-api",
        [
          Alcotest.test_case "string round-trips" `Quick test_engine_strings;
          Alcotest.test_case "checker Auto falls back" `Quick
            test_checker_auto_falls_back;
          Alcotest.test_case "_opt accessors" `Quick
            test_checker_opt_accessors;
        ] );
      ( "over-cap",
        [
          Alcotest.test_case "synthesis paid once" `Quick
            test_auto_over_cap_pays_once;
          Alcotest.test_case "auto == otf == explicit, per step" `Quick
            test_auto_over_cap_verdicts;
        ] );
    ]
