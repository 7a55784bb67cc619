(* Sctc.Prop is the single property-parsing entry point; these tests pin
   its contract: exact equivalence with the legacy per-syntax parsers
   (including every EEE case-study property), the auto-detection rule
   (PSL keywords flip, until/release do not), the structured error
   shape, and the checker's [Auto] text path.

   The legacy-equivalence tests below are the one place outside
   [Sctc.Prop] that may still call the deprecated [Fltl_parser.parse] /
   [Psl.parse] — they exist to compare against them. *)
[@@@alert "-deprecated"]

module Prop = Sctc.Prop

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let formula =
  Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (Formula.to_string f))
    Formula.equal

(* ---- equivalence with the legacy entries -------------------------------- *)

let eee_property_texts () =
  List.concat_map
    (fun op ->
      [
        Eee.Eee_spec.property_text op;
        Eee.Eee_spec.property_text ~bound:1000 op;
      ])
    Eee.Eee_spec.all_ops

let test_fltl_equivalence () =
  List.iter
    (fun text ->
      Alcotest.check formula text (Fltl_parser.parse text)
        (Prop.parse_exn ~syntax:`Fltl text);
      (* the EEE texts use only core FLTL operators, so auto-detection
         must leave their meaning untouched *)
      Alcotest.check formula (text ^ " (auto)") (Fltl_parser.parse text)
        (Prop.parse_exn text))
    (eee_property_texts ()
    @ [ "G (a -> F[40] b)"; "a U[5] b"; "a R b"; "!a & (b | X c)" ])

let test_psl_equivalence () =
  List.iter
    (fun text ->
      Alcotest.check formula text (Psl.parse text)
        (Prop.parse_exn ~syntax:`Psl text))
    [
      "always (req -> eventually! ack)";
      "never fault";
      "next[3] done";
      "a until! b";
      "a until b";
      "a release b";
    ]

(* ---- auto-detection ------------------------------------------------------ *)

let test_auto_detection () =
  let detected text = Prop.detect_syntax text in
  check "always is PSL" true (detected "always (a -> b)" = `Psl);
  check "never is PSL" true (detected "never fault" = `Psl);
  check "eventually is PSL" true (detected "eventually! p" = `Psl);
  check "next is PSL" true (detected "next p" = `Psl);
  check "G/F/X are FLTL" true (detected "G (a -> F[5] b)" = `Fltl);
  (* until/release exist in both grammars with different strengths: they
     must not flip detection, so bare-word texts keep FLTL semantics *)
  check "until stays FLTL" true (detected "a until b" = `Fltl);
  check "release stays FLTL" true (detected "a release b" = `Fltl);
  Alcotest.check formula "auto until is the strong FLTL U"
    (Fltl_parser.parse "a until b")
    (Prop.parse_exn "a until b");
  check "garbage detects as FLTL" true (detected "a @ b" = `Fltl);
  Alcotest.check formula "auto picks PSL on keyword"
    (Psl.parse "always (a -> eventually! b)")
    (Prop.parse_exn "always (a -> eventually! b)")

(* ---- structured errors --------------------------------------------------- *)

let test_structured_errors () =
  (match Prop.parse "G (a -> " with
  | Ok _ -> Alcotest.fail "truncated property parsed"
  | Error e ->
    check_int "line" 1 e.Prop.line;
    check "column points past the arrow" true (e.Prop.col >= 8);
    check "message non-empty" true (e.Prop.message <> "");
    check_string "input preserved" "G (a -> " e.Prop.input;
    check "rendering carries position" true
      (String.length (Prop.error_to_string e) > 0
      && String.sub (Prop.error_to_string e) 0 2 = "1:"));
  (match Prop.parse "a @ b" with
  | Ok _ -> Alcotest.fail "lex error parsed"
  | Error e -> check_int "lex error column" 3 e.Prop.col);
  (match Prop.parse ~syntax:`Psl "always" with
  | Ok _ -> Alcotest.fail "bare keyword parsed"
  | Error _ -> ());
  check "parse_exn raises Parse_error" true
    (match Prop.parse_exn "G (" with
    | exception Prop.Parse_error _ -> true
    | _ -> false)

(* ---- the checker's text path --------------------------------------------- *)

let test_checker_auto_text () =
  let checker = Sctc.Checker.create ~name:"prop-test" () in
  Sctc.Checker.register_sampler checker "p" (fun () -> true);
  Sctc.Checker.register_sampler checker "q" (fun () -> true);
  Sctc.Checker.add_property_text ~syntax:`Auto checker ~name:"fltl"
    "G (p -> F q)";
  Sctc.Checker.add_property_text ~syntax:`Auto checker ~name:"psl"
    "always (p -> eventually! q)";
  Sctc.Checker.step checker;
  check "both properties monitored" true
    (List.length (Sctc.Checker.verdicts checker) = 2);
  check "malformed text raises Parse_error" true
    (match
       Sctc.Checker.add_property_text checker ~name:"bad" "G (p -> "
     with
    | exception Prop.Parse_error _ -> true
    | _ -> false);
  (* the bugfix companion: unknown names now raise a descriptive
     Invalid_argument instead of a bare Not_found *)
  let contains haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check "unknown verdict name is descriptive" true
    (match Sctc.Checker.verdict checker "nope" with
    | exception Invalid_argument msg -> contains msg "fltl"
    | _ -> false)

let () =
  Alcotest.run "prop"
    [
      ( "equivalence",
        [
          Alcotest.test_case "FLTL (incl. EEE specs)" `Quick
            test_fltl_equivalence;
          Alcotest.test_case "PSL" `Quick test_psl_equivalence;
        ] );
      ("auto", [ Alcotest.test_case "detection rule" `Quick test_auto_detection ]);
      ( "errors",
        [ Alcotest.test_case "structured fields" `Quick test_structured_errors ]
      );
      ( "checker",
        [ Alcotest.test_case "add_property_text Auto" `Quick
            test_checker_auto_text ]
      );
    ]
