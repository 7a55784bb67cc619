(* Tests for the temporal-logic front end: hash-consing, smart-constructor
   identities, FLTL and PSL parsing, NNF, and propositions. *)

module F = Formula

(* parse through the one property grammar, [Sctc.Prop] *)
let parse_fltl text = Sctc.Prop.parse_exn ~syntax:`Fltl text
let parse_psl text = Sctc.Prop.parse_exn ~syntax:`Psl text

let formula_testable =
  Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (F.to_string f))
    F.equal

let check_formula = Alcotest.check formula_testable

(* --- hash-consing and smart constructors ------------------------------ *)

let test_hash_consing () =
  let a = F.and_ (F.prop "x") (F.globally None (F.prop "y")) in
  let b = F.and_ (F.prop "x") (F.globally None (F.prop "y")) in
  Alcotest.(check bool) "physically equal" true (a == b);
  Alcotest.(check int) "same id" (F.hash a) (F.hash b)

let test_boolean_identities () =
  let p = F.prop "p" in
  check_formula "and true" p (F.and_ F.tru p);
  check_formula "and false" F.fls (F.and_ p F.fls);
  check_formula "or true" F.tru (F.or_ p F.tru);
  check_formula "or false" p (F.or_ F.fls p);
  check_formula "idempotent and" p (F.and_ p p);
  check_formula "idempotent or" p (F.or_ p p);
  check_formula "double negation" p (F.not_ (F.not_ p))

let test_temporal_identities () =
  let p = F.prop "p" and q = F.prop "q" in
  (* zero bounds intentionally do NOT collapse: the operator must survive
     so end-of-trace closure can tell eventualities from invariants *)
  Alcotest.(check bool) "F[0] kept" false (F.equal p (F.finally (Some 0) p));
  Alcotest.(check bool) "G[0] kept" false (F.equal p (F.globally (Some 0) p));
  check_formula "F idempotent" (F.finally None p)
    (F.finally None (F.finally None p));
  check_formula "X true" F.tru (F.next F.tru);
  check_formula "F of false" F.fls (F.finally None F.fls);
  check_formula "true U q = F q" (F.finally None q) (F.until None F.tru q);
  check_formula "false R q = G q" (F.globally None q)
    (F.release None F.fls q)

let test_negative_bound_rejected () =
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Formula.finally: negative bound -1") (fun () ->
      ignore (F.finally (Some (-1)) (F.prop "p")))

(* --- observers --------------------------------------------------------- *)

let test_props_collection () =
  let f = parse_fltl "G (a -> F[5] (b | c)) & X a" in
  Alcotest.(check (list string)) "props sorted" [ "a"; "b"; "c" ] (F.props f)

let test_max_bound () =
  let f = parse_fltl "F[10] a & G[3] (b U[7] c)" in
  Alcotest.(check (option int)) "max bound" (Some 10) (F.max_bound f);
  Alcotest.(check (option int)) "no bound" None
    (F.max_bound (parse_fltl "G (a -> F b)"))

let test_is_propositional () =
  Alcotest.(check bool) "propositional" true
    (F.is_propositional (parse_fltl "a & !b | c"));
  Alcotest.(check bool) "temporal" false
    (F.is_propositional (parse_fltl "a & X b"))

let test_eval_now () =
  let f = parse_fltl "a & (!b | c)" in
  let valuation = function "a" -> true | "b" -> true | "c" -> true | _ -> false in
  Alcotest.(check bool) "evaluates" true (F.eval_now f valuation);
  let valuation2 = function "a" -> true | _ -> false in
  Alcotest.(check bool) "evaluates 2" true (F.eval_now f valuation2);
  Alcotest.check_raises "temporal rejected"
    (Invalid_argument "Formula.eval_now: temporal operator") (fun () ->
      ignore (F.eval_now (parse_fltl "X a") valuation))

(* --- NNF ---------------------------------------------------------------- *)

let rec nnf_ok f =
  match f.F.node with
  | F.True | F.False | F.Prop _ -> true
  | F.Not { F.node = F.Prop _; _ } -> true
  | F.Not _ -> false
  | F.And (a, b) | F.Or (a, b) -> nnf_ok a && nnf_ok b
  | F.Next g | F.Finally (_, g) | F.Globally (_, g) -> nnf_ok g
  | F.Until (_, a, b) | F.Release (_, a, b) -> nnf_ok a && nnf_ok b

let test_nnf_shape () =
  let f = parse_fltl "!(G (a -> F[2] b) & (c U d))" in
  let normalized = F.nnf f in
  Alcotest.(check bool) "negation only on props" true (nnf_ok normalized)

let test_nnf_duality () =
  check_formula "not G = F not"
    (F.finally (Some 3) (F.not_ (F.prop "a")))
    (F.nnf (F.not_ (F.globally (Some 3) (F.prop "a"))));
  check_formula "not U = R not"
    (F.release None (F.not_ (F.prop "a")) (F.not_ (F.prop "b")))
    (F.nnf (F.not_ (F.until None (F.prop "a") (F.prop "b"))))

(* --- parsing ------------------------------------------------------------ *)

let test_parse_paper_property () =
  (* the paper's sample property shape (A) *)
  let f =
    parse_fltl "F (Read -> F[1000] (EEE_OK | EEE_BUSY | EEE_ERROR))"
  in
  Alcotest.(check (list string))
    "props" [ "EEE_BUSY"; "EEE_ERROR"; "EEE_OK"; "Read" ] (F.props f);
  Alcotest.(check (option int)) "bound" (Some 1000) (F.max_bound f)

let test_parse_precedence () =
  (* -> binds weaker than |, which binds weaker than & *)
  let f = parse_fltl "a -> b | c & d" in
  let expected =
    F.implies (F.prop "a")
      (F.or_ (F.prop "b") (F.and_ (F.prop "c") (F.prop "d")))
  in
  check_formula "precedence" expected f

let test_parse_right_assoc_implies () =
  check_formula "right assoc"
    (F.implies (F.prop "a") (F.implies (F.prop "b") (F.prop "c")))
    (parse_fltl "a -> b -> c")

let test_parse_until_bound () =
  check_formula "bounded until"
    (F.until (Some 5) (F.prop "a") (F.prop "b"))
    (parse_fltl "a U[5] b")

let test_parse_symbols_and_words () =
  check_formula "&& and and agree" (parse_fltl "a && b")
    (parse_fltl "a and b");
  check_formula "|| and or agree" (parse_fltl "a || b")
    (parse_fltl "a or b");
  check_formula "! and not agree" (parse_fltl "!a")
    (parse_fltl "not a")

let test_parse_comments () =
  check_formula "comments skipped"
    (parse_fltl "G (a -> F b)")
    (parse_fltl "G (/* block */ a -> // line\n F b)")

let test_parse_errors () =
  let parse text = Loc.catch (fun () -> Sctc.Prop.parse_exn ~syntax:`Fltl text) in
  (match parse "G (a -> " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  (match parse "a @ b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected lex error");
  match parse "a b" with
  | Error error ->
    Alcotest.(check bool) "mentions trailing" true
      (String.starts_with ~prefix:"trailing input" error.Loc.message)
  | Ok _ -> Alcotest.fail "expected trailing-input error"

(* round trip: printing then parsing is the identity (modulo hash-consing) *)
let gen_formula =
  let open QCheck.Gen in
  let prop_name = oneofl [ "a"; "b"; "c" ] in
  let bound = oneof [ return None; map (fun n -> Some n) (int_bound 4) ] in
  sized @@ fix (fun self n ->
      if n = 0 then
        oneof
          [ return F.tru; return F.fls; map F.prop prop_name ]
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

let arbitrary_formula =
  QCheck.make ~print:F.to_string (QCheck.Gen.map (fun f -> f) gen_formula)

let qcheck_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse round trip" ~count:500 arbitrary_formula
    (fun f -> F.equal (parse_fltl (F.to_string f)) f)

let qcheck_nnf_is_nnf =
  QCheck.Test.make ~name:"nnf has negation only on props" ~count:500
    arbitrary_formula (fun f -> nnf_ok (F.nnf f))

(* --- PSL ----------------------------------------------------------------- *)

let test_psl_mappings () =
  check_formula "always" (parse_fltl "G p") (parse_psl "always p");
  check_formula "never" (parse_fltl "G !p") (parse_psl "never p");
  check_formula "eventually!" (parse_fltl "F p")
    (parse_psl "eventually! p");
  check_formula "next" (parse_fltl "X p") (parse_psl "next p");
  check_formula "next[3]" (parse_fltl "X X X p")
    (parse_psl "next[3] p");
  check_formula "until!" (parse_fltl "p U q") (parse_psl "p until! q");
  check_formula "weak until" (F.release None (F.prop "q")
    (F.or_ (F.prop "p") (F.prop "q")))
    (parse_psl "p until q");
  check_formula "release" (parse_fltl "p R q")
    (parse_psl "p release q");
  check_formula "boolean words"
    (parse_fltl "(a & !b) -> c")
    (parse_psl "a and not b implies c")

let test_psl_nested () =
  check_formula "nested psl"
    (parse_fltl "G (req -> F ack)")
    (parse_psl "always (req implies eventually! ack)")

(* --- propositions -------------------------------------------------------- *)

let test_proposition_basic () =
  let value = ref false in
  let p = Proposition.make "p" (fun () -> !value) in
  Alcotest.(check bool) "false" false (Proposition.is_true p);
  Alcotest.(check bool) "is_false" true (Proposition.is_false p);
  value := true;
  Alcotest.(check bool) "true now" true (Proposition.is_true p);
  Alcotest.(check string) "name" "p" (Proposition.name p)

let test_proposition_combinators () =
  let a = Proposition.const "a" true in
  let b = Proposition.const "b" false in
  Alcotest.(check bool) "not" false Proposition.(is_true (not_ a));
  Alcotest.(check bool) "and" false Proposition.(is_true (and_ a b));
  Alcotest.(check bool) "or" true Proposition.(is_true (or_ a b))

let test_proposition_rose () =
  let value = ref false in
  let p = Proposition.make "p" (fun () -> !value) in
  let edge = Proposition.rose "rose_p" p in
  Alcotest.(check bool) "no edge initially" false (Proposition.is_true edge);
  value := true;
  Alcotest.(check bool) "rising edge" true (Proposition.is_true edge);
  Alcotest.(check bool) "only one sample long" false (Proposition.is_true edge);
  value := false;
  Alcotest.(check bool) "falling edge ignored" false (Proposition.is_true edge);
  value := true;
  Alcotest.(check bool) "second rising edge" true (Proposition.is_true edge);
  (* clone is independent *)
  Proposition.reset edge;
  Alcotest.(check bool) "after reset acts fresh" true
    (Proposition.is_true edge)

let test_proposition_table () =
  let table = Proposition.Table.create () in
  Proposition.Table.register table (Proposition.const "x" true);
  Proposition.Table.register table (Proposition.const "y" false);
  Alcotest.(check (list string)) "names" [ "x"; "y" ]
    (Proposition.Table.names table);
  Alcotest.(check bool) "find_exn works" true
    (Proposition.is_true (Proposition.Table.find_exn table "x"));
  (match Proposition.Table.find table "z" with
  | None -> ()
  | Some _ -> Alcotest.fail "z should be absent");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Proposition.Table.register: duplicate \"x\"")
    (fun () -> Proposition.Table.register table (Proposition.const "x" false))

(* --- verdicts ------------------------------------------------------------ *)

let test_verdict_combine () =
  let open Verdict in
  Alcotest.(check string) "T+T" "true" (to_string (combine True True));
  Alcotest.(check string) "T+P" "pending" (to_string (combine True Pending));
  Alcotest.(check string) "P+F" "false" (to_string (combine Pending False));
  Alcotest.(check string) "F+T" "false" (to_string (combine False True));
  Alcotest.(check bool) "final" true (is_final False);
  Alcotest.(check bool) "not final" false (is_final Pending)

let suite_formula =
  [
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "boolean identities" `Quick test_boolean_identities;
    Alcotest.test_case "temporal identities" `Quick test_temporal_identities;
    Alcotest.test_case "negative bound" `Quick test_negative_bound_rejected;
    Alcotest.test_case "props collection" `Quick test_props_collection;
    Alcotest.test_case "max bound" `Quick test_max_bound;
    Alcotest.test_case "is_propositional" `Quick test_is_propositional;
    Alcotest.test_case "eval_now" `Quick test_eval_now;
    Alcotest.test_case "nnf shape" `Quick test_nnf_shape;
    Alcotest.test_case "nnf duality" `Quick test_nnf_duality;
    QCheck_alcotest.to_alcotest qcheck_nnf_is_nnf;
  ]

let suite_parser =
  [
    Alcotest.test_case "paper property" `Quick test_parse_paper_property;
    Alcotest.test_case "precedence" `Quick test_parse_precedence;
    Alcotest.test_case "right-assoc implies" `Quick
      test_parse_right_assoc_implies;
    Alcotest.test_case "bounded until" `Quick test_parse_until_bound;
    Alcotest.test_case "symbols and words" `Quick test_parse_symbols_and_words;
    Alcotest.test_case "comments" `Quick test_parse_comments;
    Alcotest.test_case "errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest qcheck_print_parse_roundtrip;
  ]

let suite_psl =
  [
    Alcotest.test_case "operator mappings" `Quick test_psl_mappings;
    Alcotest.test_case "nested" `Quick test_psl_nested;
  ]

let suite_proposition =
  [
    Alcotest.test_case "basic" `Quick test_proposition_basic;
    Alcotest.test_case "combinators" `Quick test_proposition_combinators;
    Alcotest.test_case "rising-edge detector" `Quick test_proposition_rose;
    Alcotest.test_case "table" `Quick test_proposition_table;
    Alcotest.test_case "verdict combine" `Quick test_verdict_combine;
  ]

let () =
  Alcotest.run "logic"
    [
      ("formula", suite_formula);
      ("fltl-parser", suite_parser);
      ("psl", suite_psl);
      ("proposition", suite_proposition);
    ]
