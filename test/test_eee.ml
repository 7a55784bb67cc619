(* Tests for the EEPROM-emulation case study: functional behaviour of the
   software (driven through the mailbox on both approaches), specification
   propositions/properties, and small verification campaigns. *)

module Spec = Eee.Eee_spec
module Driver = Eee.Driver
module Harness = Eee.Harness
module Mailbox = Platform.Mailbox
module Checker = Sctc.Checker
module Coverage = Sctc.Coverage

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

(* issue one op through a session's mailbox and wait for the response *)
let issue ?(max_chunks = 400) session op ~arg0 ~arg1 =
  let mbox = Verif.Session.mailbox session in
  Mailbox.post_request mbox ~op:(Spec.op_code op) ~arg0 ~arg1;
  let rec wait chunk =
    if Mailbox.response_ready mbox then Mailbox.take_response mbox
    else if chunk >= max_chunks then Alcotest.fail "operation timed out"
    else begin
      Verif.Session.advance session;
      wait (chunk + 1)
    end
  in
  wait 0

let code name =
  match name with
  | "OK" -> Spec.eee_ok
  | "BUSY" -> Spec.eee_busy
  | "INIT" -> Spec.eee_err_init
  | "ACCESS" -> Spec.eee_err_access
  | "NO_INSTANCE" -> Spec.eee_err_no_instance
  | "POOL_FULL" -> Spec.eee_err_pool_full
  | "PARAMETER" -> Spec.eee_err_parameter
  | "NOT_FORMATTED" -> Spec.eee_err_not_formatted
  | _ -> assert false

(* --- static checks on the software -------------------------------------- *)

let test_software_shape () =
  Alcotest.(check bool) "substantive line count" true
    (Eee.Eee_program.line_count () > 200);
  Alcotest.(check bool) "many functions" true
    (Eee.Eee_program.function_count () >= 20);
  (* parses, typechecks, compiles and derives without error *)
  ignore (Eee.Eee_program.compile ());
  ignore (Eee.Eee_program.derive ())

let test_spec_properties_parse () =
  List.iter
    (fun op ->
      let text = Spec.property_text ~bound:1000 op in
      match Sctc.Prop.parse ~syntax:`Fltl text with
      | Ok f ->
        Alcotest.(check bool)
          (Spec.op_name op ^ " property has a bound")
          true
          (Formula.max_bound f = Some 1000)
      | Error error ->
        Alcotest.failf "property does not parse: %s"
          (Sctc.Prop.error_to_string error))
    Spec.all_ops

(* --- functional behaviour (fast: approach 2, no faults) ------------------- *)

let fresh_backend ?(fault_rate = 0.0) ?(seed = 11) () =
  Harness.approach2 ~fault_rate ~seed ~chunk_statements:50 ()

let test_lifecycle_format_write_read () =
  let backend = fresh_backend () in
  (* before initialization: read rejected *)
  Alcotest.(check int) "read before init" (code "INIT")
    (issue backend Spec.Read ~arg0:3 ~arg1:0);
  (* startup on unformatted flash *)
  Alcotest.(check int) "startup1 unformatted" (code "NOT_FORMATTED")
    (issue backend Spec.Startup1 ~arg0:0 ~arg1:0);
  (* format, then full write/read round trip *)
  Alcotest.(check int) "format" (code "OK")
    (issue backend Spec.Format ~arg0:0 ~arg1:0);
  Alcotest.(check int) "write id=3" (code "OK")
    (issue backend Spec.Write ~arg0:3 ~arg1:777);
  Alcotest.(check int) "read id=3" (code "OK")
    (issue backend Spec.Read ~arg0:3 ~arg1:0);
  Alcotest.(check int) "read returns stored value" 777
    (Verif.Session.read_var backend "eee_read_value");
  (* overwrite: latest record wins *)
  Alcotest.(check int) "write id=3 again" (code "OK")
    (issue backend Spec.Write ~arg0:3 ~arg1:888);
  Alcotest.(check int) "read id=3 again" (code "OK")
    (issue backend Spec.Read ~arg0:3 ~arg1:0);
  Alcotest.(check int) "latest value" 888
    (Verif.Session.read_var backend "eee_read_value");
  (* unknown id *)
  Alcotest.(check int) "read unwritten id" (code "NO_INSTANCE")
    (issue backend Spec.Read ~arg0:9 ~arg1:0);
  (* invalid parameters *)
  Alcotest.(check int) "read invalid id" (code "PARAMETER")
    (issue backend Spec.Read ~arg0:99 ~arg1:0);
  Alcotest.(check int) "write invalid id" (code "PARAMETER")
    (issue backend Spec.Write ~arg0:(-1) ~arg1:0)

let test_startup_sequence_restores_state () =
  let backend = fresh_backend () in
  ignore (issue backend Spec.Format ~arg0:0 ~arg1:0);
  ignore (issue backend Spec.Write ~arg0:5 ~arg1:123);
  ignore (issue backend Spec.Write ~arg0:7 ~arg1:456);
  (* simulate a reboot of the emulation layer state machine: startup1 and
     startup2 rebuild the index from flash *)
  Alcotest.(check int) "startup1" (code "OK")
    (issue backend Spec.Startup1 ~arg0:0 ~arg1:0);
  Alcotest.(check int) "startup2" (code "OK")
    (issue backend Spec.Startup2 ~arg0:0 ~arg1:0);
  Alcotest.(check int) "read id=5 after restart" (code "OK")
    (issue backend Spec.Read ~arg0:5 ~arg1:0);
  Alcotest.(check int) "value survived" 123
    (Verif.Session.read_var backend "eee_read_value");
  ignore (issue backend Spec.Read ~arg0:7 ~arg1:0);
  Alcotest.(check int) "second value survived" 456
    (Verif.Session.read_var backend "eee_read_value")

let test_startup2_requires_startup1 () =
  let backend = fresh_backend () in
  Alcotest.(check int) "startup2 before startup1" (code "INIT")
    (issue backend Spec.Startup2 ~arg0:0 ~arg1:0)

let test_pool_full_and_refresh () =
  let backend = fresh_backend () in
  ignore (issue backend Spec.Format ~arg0:0 ~arg1:0);
  (* 128-word block, header + 63 records fills the pool *)
  let full = ref None in
  (try
     for i = 0 to 70 do
       let ret = issue backend Spec.Write ~arg0:(i mod 16) ~arg1:i in
       if ret = code "POOL_FULL" then begin
         full := Some i;
         raise Exit
       end
       else if ret <> code "OK" then Alcotest.failf "write %d returned %d" i ret
     done
   with Exit -> ());
  (match !full with
  | Some writes -> Alcotest.(check int) "pool fills after 63 records" 63 writes
  | None -> Alcotest.fail "pool never filled");
  (* refresh compacts to the latest 16 ids and frees space *)
  Alcotest.(check int) "refresh" (code "OK")
    (issue backend Spec.Refresh ~arg0:0 ~arg1:0);
  (* refresh erases the old pool in the background: let it finish *)
  for _ = 1 to 40 do Verif.Session.advance backend done;
  Alcotest.(check int) "write works again" (code "OK")
    (issue backend Spec.Write ~arg0:1 ~arg1:4242);
  (* latest values preserved across the pool swap: id 14 last written 62 *)
  Alcotest.(check int) "read preserved id" (code "OK")
    (issue backend Spec.Read ~arg0:14 ~arg1:0);
  Alcotest.(check int) "compacted value" 62
    (Verif.Session.read_var backend "eee_read_value")

let test_busy_during_background_erase () =
  let backend = fresh_backend () in
  ignore (issue backend Spec.Format ~arg0:0 ~arg1:0);
  ignore (issue backend Spec.Write ~arg0:0 ~arg1:1);
  (* make the alternate block dirty so prepare must erase it *)
  ignore (issue backend Spec.Refresh ~arg0:0 ~arg1:0);
  (* refresh left a background erase running; an immediate operation must
     be answered with EEE_BUSY *)
  let ret = issue ~max_chunks:2 backend Spec.Format ~arg0:0 ~arg1:0 in
  Alcotest.(check int) "busy during background erase" (code "BUSY") ret;
  (* after the erase completes the same operation succeeds *)
  for _ = 1 to 40 do Verif.Session.advance backend done;
  Alcotest.(check int) "ready afterwards" (code "OK")
    (issue backend Spec.Format ~arg0:0 ~arg1:0)

let test_access_errors_with_faulty_flash () =
  let backend = fresh_backend ~fault_rate:1.0 () in
  (* every program/erase fails: format must report an access error *)
  Alcotest.(check int) "format on broken flash" (code "ACCESS")
    (issue backend Spec.Format ~arg0:0 ~arg1:0)

let test_flash_override () =
  (* the plan/session flash override reaches the device model: on the
     quick timing the software still behaves identically *)
  let flash = Harness.flash_quick_config ~fault_rate:0.0 in
  let backend = Harness.approach2 ~fault_rate:0.0 ~flash ~seed:3 () in
  Alcotest.(check int) "format" (code "OK")
    (issue backend Spec.Format ~arg0:0 ~arg1:0);
  Alcotest.(check int) "write" (code "OK")
    (issue backend Spec.Write ~arg0:2 ~arg1:2718);
  Alcotest.(check int) "read" (code "OK")
    (issue backend Spec.Read ~arg0:2 ~arg1:0);
  Alcotest.(check int) "value round-trips" 2718
    (Verif.Session.read_var backend "eee_read_value")

(* --- approach 1 runs the same software --------------------------------------- *)

let test_approach1_lifecycle () =
  let backend = Harness.approach1 ~fault_rate:0.0 ~seed:3 () in
  Alcotest.(check int) "format" (code "OK")
    (issue backend Spec.Format ~arg0:0 ~arg1:0);
  Alcotest.(check int) "write" (code "OK")
    (issue backend Spec.Write ~arg0:4 ~arg1:31415);
  Alcotest.(check int) "read" (code "OK")
    (issue backend Spec.Read ~arg0:4 ~arg1:0);
  Alcotest.(check int) "value via memory interface" 31415
    (Verif.Session.read_var backend "eee_read_value");
  Alcotest.(check int) "read unwritten" (code "NO_INSTANCE")
    (issue backend Spec.Read ~arg0:11 ~arg1:0)

(* --- specification monitoring -------------------------------------------------- *)

let test_properties_hold_during_campaign () =
  let backend = fresh_backend ~fault_rate:0.05 ~seed:5 () in
  Driver.install_spec backend Spec.all_ops;
  let config =
    { Driver.default_config with test_cases = 40; seed = 5;
      watchdog_chunks = 400 }
  in
  let outcome = Driver.run_campaign backend config Spec.Read in
  Alcotest.(check int) "all cases completed" 40 (Verif.Result.completed_cases outcome);
  Alcotest.(check bool) "some coverage" true
    (Verif.Result.coverage_percent outcome > 30.0);
  (* the software conforms: the response property must never be violated *)
  check_verdict "read property not violated" Verdict.Pending
    (Verif.Result.verdict outcome (Spec.property_name Spec.Read));
  (* every op's property is non-violated *)
  List.iter
    (fun op ->
      let verdict = Checker.verdict (Verif.Session.checker backend) (Spec.property_name op) in
      Alcotest.(check bool)
        (Spec.op_name op ^ " not violated")
        true
        (not (Verdict.equal verdict Verdict.False)))
    Spec.all_ops

let test_coverage_improves_with_test_cases () =
  let run cases =
    let backend = fresh_backend ~fault_rate:0.08 ~seed:9 () in
    Driver.install_spec backend [ Spec.Write ];
    let config =
      { Driver.default_config with test_cases = cases; seed = 9;
        watchdog_chunks = 400 }
    in
    let outcome = Driver.run_campaign backend config Spec.Write in
    Verif.Result.coverage_percent outcome
  in
  let few = run 5 in
  let many = run 80 in
  Alcotest.(check bool)
    (Printf.sprintf "coverage grows (%.0f%% -> %.0f%%)" few many)
    true (many >= few);
  Alcotest.(check bool) "many cases reach high coverage" true (many >= 60.0)

let test_bounded_property_violation_detected () =
  (* a property with an unreasonably tight statement bound must be
     violated: the operation cannot complete within 3 statements *)
  let backend = fresh_backend () in
  Driver.install_spec ~bound:(Some 3) backend [ Spec.Format ];
  ignore (issue backend Spec.Format ~arg0:0 ~arg1:0);
  check_verdict "tight bound violated" Verdict.False
    (Checker.verdict (Verif.Session.checker backend) (Spec.property_name Spec.Format))

let test_analysis_harness () =
  (* the closed nondet-driven variant used by the formal baselines *)
  let info = Eee.Eee_program.analysis_info () in
  let env = Minic.Interp.create info in
  let hooks =
    { (Minic.Interp.default_hooks ()) with
      Minic.Interp.nondet = (fun ~lo ~hi -> (lo + hi) / 2) }
  in
  (match Minic.Interp.run ~fuel:5_000 env hooks ~entry:"main" with
  | Minic.Interp.Fuel_exhausted -> () (* endless service loop, as designed *)
  | _ -> Alcotest.fail "analysis harness should loop forever");
  Alcotest.(check bool) "operations dispatched" true
    (Minic.Interp.read_global env "eee_served" > 0)

let suite_static =
  [
    Alcotest.test_case "software shape" `Quick test_software_shape;
    Alcotest.test_case "spec properties parse" `Quick
      test_spec_properties_parse;
    Alcotest.test_case "analysis harness" `Quick test_analysis_harness;
  ]

let suite_functional =
  [
    Alcotest.test_case "format/write/read lifecycle" `Quick
      test_lifecycle_format_write_read;
    Alcotest.test_case "startup restores state" `Quick
      test_startup_sequence_restores_state;
    Alcotest.test_case "startup2 requires startup1" `Quick
      test_startup2_requires_startup1;
    Alcotest.test_case "pool full and refresh" `Quick
      test_pool_full_and_refresh;
    Alcotest.test_case "busy during background erase" `Quick
      test_busy_during_background_erase;
    Alcotest.test_case "access errors on faulty flash" `Quick
      test_access_errors_with_faulty_flash;
    Alcotest.test_case "flash override reaches the model" `Quick
      test_flash_override;
    Alcotest.test_case "approach-1 lifecycle" `Quick test_approach1_lifecycle;
  ]

let suite_campaign =
  [
    Alcotest.test_case "properties hold during campaign" `Quick
      test_properties_hold_during_campaign;
    Alcotest.test_case "coverage improves with test cases" `Quick
      test_coverage_improves_with_test_cases;
    Alcotest.test_case "tight bound violated" `Quick
      test_bounded_property_violation_detected;
  ]

let () =
  Alcotest.run "eee"
    [
      ("static", suite_static);
      ("functional", suite_functional);
      ("campaign", suite_campaign);
    ]
