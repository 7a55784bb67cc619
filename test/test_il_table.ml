(* The IL text form and the engine selection.

   - differential qcheck: the list-scan [Il.next] over the textual IL
     round-trip agrees with the [Ar_automaton.next] delta monitors step,
     on every (state, mask) of automata synthesized from random formulas
   - the missing-guard diagnostic names the automaton and spells the
     valuation as a proposition assignment
   - [Engine] string round-trips (the retired "hybrid", "il" and "auto"
     names are unknown)
   - a property with 20000 count-down states: fresh checkers fill its
     table once per domain, and [Otf] filling on demand matches
     [Explicit] exploring up front, per step *)

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

(* --- the engine enum -------------------------------------------------- *)

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
    (Engine.of_string "EXPLICIT" = Some Engine.Explicit);
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
    [ "warp"; "hybrid"; "il"; "auto" ]

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

(* --- a large bound ------------------------------------------------------ *)

(* 20000 count-down states: a run takes a handful, exploring fills all *)
let large_bound = Sctc.Prop.parse_exn ~syntax:`Fltl "G (a -> F[20000] b)"

(* a request every 17 triggers, answered 4 triggers later while
   [tick < answered_until]; returns a stepper yielding the verdict *)
let large_bound_stepper ?(answered_until = max_int) engine =
  let tick = ref 0 in
  let checker = Checker.create ~name:(Engine.to_string engine) () in
  Checker.register_sampler checker "a" (fun () -> !tick mod 17 = 1);
  Checker.register_sampler checker "b" (fun () ->
      !tick mod 17 = 5 && !tick < answered_until);
  Checker.add_property ~engine checker ~name:"p" large_bound;
  fun () ->
    incr tick;
    Checker.step checker;
    Checker.verdict checker "p"

(* Fresh checkers re-register the property, as campaign jobs do. The
   first one on this domain fills the table entries its run takes; the
   later ones, driven by the same stimulus, find all of them filled. *)
let test_synthesis_paid_once () =
  let session () =
    let step = large_bound_stepper Engine.Otf in
    let before = Ar_automaton.fills () in
    for _ = 1 to 300 do
      ignore (step ())
    done;
    Ar_automaton.fills () - before
  in
  Alcotest.(check bool) "the first checker fills" true (session () > 0);
  for i = 2 to 50 do
    Alcotest.(check int) (Printf.sprintf "checker %d fills nothing" i) 0
      (session ())
  done

(* [Otf] fills its table on demand in a domain of its own; [Explicit]
   explores this domain's table to the fixpoint at registration, with no
   cap below the default. Requests go unanswered from trigger 307 on, so
   the property fails 20000 triggers later: the comparison covers the
   verdict change. *)
let test_otf_matches_explicit () =
  let answered_until = 300 and triggers = 20_500 in
  let otf =
    Domain.join
      (Domain.spawn (fun () ->
           let step = large_bound_stepper ~answered_until Engine.Otf in
           Array.init triggers (fun _ -> step ())))
  in
  let explicit = large_bound_stepper ~answered_until Engine.Explicit in
  Array.iteri
    (fun i verdict ->
      if not (Verdict.equal verdict (explicit ())) then
        Alcotest.failf "engines disagree at trigger %d" (i + 1))
    otf;
  check_verdict "violation reached" Verdict.False otf.(triggers - 1)

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
          Alcotest.test_case "_opt accessors" `Quick
            test_checker_opt_accessors;
        ] );
      ( "over-cap",
        [
          Alcotest.test_case "synthesis paid once" `Quick
            test_synthesis_paid_once;
          Alcotest.test_case "otf == explicit, per step" `Quick
            test_otf_matches_explicit;
        ] );
    ]
