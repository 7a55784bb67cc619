(* Integration tests for approach 1: compiled MiniC running on the SoC,
   monitored by SCTC through the memory interface with the clock as the
   timing reference and the flag handshake (paper Section 3.1). *)

module Soc = Platform.Soc
module Esw_monitor = Platform.Esw_monitor
module Mem_prop = Platform.Mem_prop
module Mailbox = Platform.Mailbox
module Checker = Sctc.Checker
module Map = Cpu.Memory_map

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

let compile source =
  let program = Minic.C_parser.parse source in
  let info = Minic.Typecheck.check program in
  Mcc.Codegen.compile info

let soc_with source =
  let soc = Soc.create () in
  Soc.load soc (compile source);
  soc

(* the paper's software skeleton: init protocol flag, then serve forever *)
let counter_program =
  {|
    int flag;
    int counter;
    int overflow;

    void tick(void) {
      counter = counter + 1;
      if (counter > 50) {
        counter = 0;
        overflow = overflow + 1;
      }
    }

    void main(void) {
      flag = 1;
      while (true) { tick(); }
    }
  |}

let test_handshake_and_monitoring () =
  let soc = soc_with counter_program in
  let checker = Checker.create ~name:"counter-props" () in
  Mem_prop.register_all checker
    [
      Mem_prop.var_pred soc ~prop_name:"counter_in_range" "counter" (fun v ->
          v >= 0 && v <= 51);
      Mem_prop.var_pred soc ~prop_name:"overflow_seen" "overflow" (fun v ->
          v > 0);
    ];
  Checker.add_property_text checker ~name:"range" "G counter_in_range";
  Checker.add_property_text checker ~name:"progress" "F overflow_seen";
  let monitor = Esw_monitor.attach soc ~flag:"flag" checker in
  Soc.run ~max_cycles:4000 soc;
  Alcotest.(check bool) "handshake completed" true
    (Esw_monitor.initialized monitor);
  (match Esw_monitor.armed_at_cycle monitor with
  | Some cycle -> Alcotest.(check bool) "armed after boot" true (cycle > 1)
  | None -> Alcotest.fail "never armed");
  check_verdict "safety holds (pending)" Verdict.Pending
    (Checker.verdict checker "range");
  check_verdict "liveness validated" Verdict.True
    (Checker.verdict checker "progress");
  Alcotest.(check bool) "checker stepped every cycle after arming" true
    (Checker.steps checker > 3000)

let test_monitor_not_armed_before_flag () =
  (* software that never raises the flag: the monitor must stay silent *)
  let source =
    {|
      int flag;
      int counter;
      void main(void) { while (true) { counter = counter + 1; } }
    |}
  in
  let soc = soc_with source in
  let checker = Checker.create ~name:"never" () in
  Checker.register_sampler checker "always_false" (fun () -> false);
  Checker.add_property_text checker ~name:"p" "G always_false";
  let monitor = Esw_monitor.attach soc ~flag:"flag" checker in
  Soc.run ~max_cycles:500 soc;
  Alcotest.(check bool) "not initialized" false
    (Esw_monitor.initialized monitor);
  Alcotest.(check int) "checker never stepped" 0 (Checker.steps checker);
  check_verdict "no spurious violation" Verdict.Pending
    (Checker.verdict checker "p")

let test_violation_detected_with_cycle () =
  let source =
    {|
      int flag;
      int bad;
      int i;
      void main(void) {
        flag = 1;
        for (i = 0; i < 40; i++) { }
        bad = 1;
        while (true) { }
      }
    |}
  in
  let soc = soc_with source in
  let checker = Checker.create ~name:"safety" () in
  Mem_prop.register_all checker
    [ Mem_prop.var_eq soc ~prop_name:"bad_set" "bad" 1 ];
  Checker.add_property_text checker ~name:"never_bad" "G !bad_set";
  let violation = ref None in
  Checker.on_violation checker (fun name step -> violation := Some (name, step));
  ignore (Esw_monitor.attach soc ~flag:"flag" checker);
  Soc.run ~max_cycles:2000 soc;
  check_verdict "violated" Verdict.False (Checker.verdict checker "never_bad");
  match !violation with
  | Some ("never_bad", step) ->
    Alcotest.(check bool) "violation after the loop ran" true (step > 40)
  | _ -> Alcotest.fail "violation callback not invoked"

let test_fname_function_sequencing () =
  let source =
    {|
      int flag;
      int n;
      void helper(void) { n = n + 1; }
      void other(void) { n = n + 2; }
      void main(void) {
        flag = 1;
        while (true) {
          helper();
          other();
        }
      }
    |}
  in
  let soc = soc_with source in
  let checker = Checker.create ~name:"fname" () in
  Mem_prop.register_all checker
    [ Mem_prop.in_function soc "helper"; Mem_prop.in_function soc "other" ];
  (* function sequencing: whenever we are in helper, we eventually reach
     other (within a bounded number of cycles) *)
  Checker.add_property_text checker ~name:"seq"
    "G (in_helper -> F[300] in_other)";
  Checker.add_property_text checker ~name:"reaches_helper" "F in_helper";
  ignore (Esw_monitor.attach soc ~flag:"flag" checker);
  Soc.run ~max_cycles:3000 soc;
  check_verdict "helper observed" Verdict.True
    (Checker.verdict checker "reaches_helper");
  check_verdict "sequencing holds" Verdict.Pending
    (Checker.verdict checker "seq")

let test_mailbox_request_response () =
  (* software serving doubling requests through the mailbox *)
  let source =
    Printf.sprintf
      {|
        const int MB = %d;
        int flag;
        int served;
        void main(void) {
          flag = 1;
          while (true) {
            if (*(MB + 0) == 1) {
              int op = *(MB + 1);
              int a = *(MB + 2);
              *(MB + 0) = 0;
              *(MB + 5) = a * 2 + op;
              *(MB + 4) = 1;
              served = served + 1;
            }
          }
        }
      |}
      Map.mailbox_base
  in
  let soc = soc_with source in
  let mailbox = Soc.mailbox soc in
  let checker = Checker.create ~name:"resp" () in
  Checker.register_sampler checker "req" (fun () ->
      Mailbox.request_pending mailbox);
  Checker.register_sampler checker "resp" (fun () ->
      Mailbox.response_ready mailbox);
  Checker.add_property_text checker ~name:"responsive"
    "G (req -> F[500] resp)";
  ignore (Esw_monitor.attach soc ~flag:"flag" checker);
  (* testbench driving three requests *)
  let kernel = Soc.kernel soc in
  let clock = Soc.clock soc in
  let responses = ref [] and posted = ref 0 in
  let post () =
    incr posted;
    Mailbox.post_request mailbox ~op:0 ~arg0:(!posted * 10) ~arg1:0
  in
  Sim.Kernel.spawn_method kernel (Sim.Clock.posedge clock) ~init:post
    (fun () ->
      if Mailbox.response_ready mailbox then begin
        responses := Mailbox.take_response mailbox :: !responses;
        if !posted < 3 then post ()
      end);
  Soc.run ~max_cycles:5000 soc;
  Alcotest.(check (list int)) "computed results" [ 20; 40; 60 ]
    (List.rev !responses);
  check_verdict "responsiveness property holds" Verdict.Pending
    (Checker.verdict checker "responsive");
  Alcotest.(check int) "software served all" 3 (Soc.read_var soc "served")

let test_software_uses_flash_controller () =
  (* DFALib-style word program + readback through the controller *)
  let source =
    Printf.sprintf
      {|
        const int FC = %d;
        int flag;
        int result;
        void main(void) {
          flag = 1;
          *(FC + 1) = 9;        /* ADDR */
          *(FC + 2) = 4242;     /* DATA */
          *(FC + 0) = 1;        /* CMD = program */
          while (*(FC + 3) != 0) { }   /* wait ready */
          *(FC + 1) = 9;
          result = *(FC + 2);   /* read back */
          while (true) { }
        }
      |}
      Map.flash_ctrl_base
  in
  let soc = soc_with source in
  Soc.run ~max_cycles:3000 soc;
  Alcotest.(check int) "flash written" 4242
    (Dataflash.Flash.read_word (Soc.flash soc) 9);
  Alcotest.(check int) "software read it back" 4242
    (Soc.read_var soc "result")

let test_nondet_stimulus_in_range () =
  let source =
    {|
      int flag;
      int out_of_range;
      void main(void) {
        flag = 1;
        while (true) {
          int v = nondet(10, 20);
          if (v < 10 || v > 20) { out_of_range = 1; }
        }
      }
    |}
  in
  let soc = soc_with source in
  let checker = Checker.create ~name:"range" () in
  Mem_prop.register_all checker
    [ Mem_prop.var_eq soc ~prop_name:"oob" "out_of_range" 1 ];
  Checker.add_property_text checker ~name:"in_range" "G !oob";
  ignore (Esw_monitor.attach soc ~flag:"flag" checker);
  Soc.run ~max_cycles:5000 soc;
  check_verdict "stimulus never out of range" Verdict.Pending
    (Checker.verdict checker "in_range")

let test_assert_trap_stops_cpu () =
  let source =
    {|
      int flag;
      void main(void) {
        flag = 1;
        assert(1 == 2);
      }
    |}
  in
  let soc = soc_with source in
  Soc.run ~max_cycles:1000 soc;
  Alcotest.(check bool) "cpu stopped" true (Soc.cpu_stopped soc);
  match Cpu.Cpu_core.stop_reason (Soc.cpu soc) with
  | Cpu.Cpu_core.Trapped code ->
    Alcotest.(check int) "assert trap" Cpu.Isa.trap_assert code
  | _ -> Alcotest.fail "expected trap"

let suite =
  [
    Alcotest.test_case "handshake and monitoring" `Quick
      test_handshake_and_monitoring;
    Alcotest.test_case "monitor waits for flag" `Quick
      test_monitor_not_armed_before_flag;
    Alcotest.test_case "violation detected" `Quick
      test_violation_detected_with_cycle;
    Alcotest.test_case "fname sequencing" `Quick
      test_fname_function_sequencing;
    Alcotest.test_case "mailbox request/response" `Quick
      test_mailbox_request_response;
    Alcotest.test_case "flash via controller" `Quick
      test_software_uses_flash_controller;
    Alcotest.test_case "nondet in range" `Quick test_nondet_stimulus_in_range;
    Alcotest.test_case "assert traps cpu" `Quick test_assert_trap_stops_cpu;
  ]

let () = Alcotest.run "platform" [ ("approach-1", suite) ]
