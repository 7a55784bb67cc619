(* Integration tests for approach 2: the derived SystemC model executes one
   statement per run of its timed process, the program-counter event triggers
   the checker, and direct memory accesses go through the virtual memory
   model (paper Section 3.2). Includes a cross-approach agreement test. *)

module C2sc = Esw.C2sc
module Vmem = Esw.Vmem
module Esw_model = Esw.Esw_model
module Esw_prop = Esw.Esw_prop
module Checker = Sctc.Checker
module Trigger = Sctc.Trigger
module Kernel = Sim.Kernel

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

let derive source =
  let program = Minic.C_parser.parse source in
  let info = Minic.Typecheck.check program in
  C2sc.derive info

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec search i =
    i + nl <= hl && (String.sub haystack i nl = needle || search (i + 1))
  in
  search 0

(* --- the C2SystemC translation ---------------------------------------------- *)

let test_derive_inserts_fname () =
  let derived =
    derive "int x; void f(void) { x = 1; } void main(void) { f(); }"
  in
  Alcotest.(check bool) "fname member added" true
    (List.mem_assoc "fname" derived.C2sc.member_vars);
  List.iter
    (fun (f : Minic.Ast.func) ->
      match f.Minic.Ast.f_body with
      | { Minic.Ast.sdesc =
            Minic.Ast.Assign (Minic.Ast.Lvar "fname", _); _ } :: _ ->
        ()
      | _ -> Alcotest.failf "function %s lacks fname tracking" f.Minic.Ast.f_name)
    derived.C2sc.model_program.Minic.Ast.funcs

let test_derive_respects_existing_fname () =
  let derived = derive "int fname; void main(void) { }" in
  let count =
    List.length
      (List.filter (fun (n, _) -> n = "fname") derived.C2sc.member_vars)
  in
  Alcotest.(check int) "single fname member" 1 count

let test_derive_members_and_accesses () =
  let derived =
    derive
      {|
        int a;
        int table[4];
        const int C = 5;
        void main(void) {
          a = *(0x100);
          *(0x200) = a;
          table[0] = mem_read(0x300);
        }
      |}
  in
  Alcotest.(check bool) "globals become members" true
    (List.mem_assoc "a" derived.C2sc.member_vars
    && List.mem_assoc "table" derived.C2sc.member_vars);
  Alcotest.(check bool) "consts are not members" true
    (not (List.mem_assoc "C" derived.C2sc.member_vars));
  Alcotest.(check int) "memory accesses converted to VM" 3
    derived.C2sc.converted_accesses

let test_derive_systemc_rendering () =
  let derived = derive "int x; void main(void) { x = 1; }" in
  let text = C2sc.to_systemc derived in
  Alcotest.(check bool) "SC_MODULE" true (contains "SC_MODULE(ESW_SC)" text);
  Alcotest.(check bool) "pc event" true (contains "esw_pc_event" text);
  Alcotest.(check bool) "vmem" true (contains "VirtualMemModel" text);
  Alcotest.(check bool) "SC_THREAD main" true (contains "SC_THREAD(main)" text)

(* --- virtual memory model ----------------------------------------------------- *)

let test_vmem_sparse_and_devices () =
  let vmem = Vmem.create () in
  Alcotest.(check int) "unmapped reads zero" 0 (Vmem.read vmem 0xDEAD);
  Vmem.write vmem 0xDEAD 7;
  Alcotest.(check int) "sparse backing" 7 (Vmem.read vmem 0xDEAD);
  let hits = ref 0 in
  Vmem.map_device vmem
    {
      Cpu.Bus.dev_name = "port";
      base = 0x100;
      size = 1;
      read = (fun _ -> incr hits; 55);
      write = (fun _ _ -> incr hits);
    };
  Alcotest.(check int) "device read" 55 (Vmem.read vmem 0x100);
  Vmem.write vmem 0x100 1;
  Alcotest.(check int) "device hit count" 2 !hits;
  Alcotest.(check int) "device accesses tracked" 2 (Vmem.device_accesses vmem);
  Alcotest.(check int) "total accesses" 5 (Vmem.accesses vmem)

(* --- model execution ------------------------------------------------------------ *)

let model_of ?on_tick source =
  let kernel = Kernel.create () in
  let vmem = Vmem.create () in
  let derived = derive source in
  let model = Esw_model.create kernel ?on_tick derived ~vmem in
  (kernel, model)

let test_time_is_statement_count () =
  let source =
    {|
      int n;
      void main(void) {
        n = 1;
        n = 2;
        n = 3;
      }
    |}
  in
  let kernel, model = model_of source in
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:1000 kernel;
  (match Esw_model.outcome model with
  | Esw_model.Done (Minic.Interp.Finished _) -> ()
  | _ -> Alcotest.fail "model should finish");
  (* 1 inserted fname assignment + 3 statements *)
  Alcotest.(check int) "statements" 4 (Esw_model.statements model);
  (* one extra time unit for the final post-execution sample *)
  Alcotest.(check int) "simulation time = statements + 1" 5 (Kernel.now kernel);
  Kernel.run ~max_time:1000 kernel;
  Alcotest.(check int) "the model's process has ended" 5 (Kernel.now kernel)

let test_pc_event_triggers_checker () =
  let source =
    {|
      int counter;
      void main(void) {
        while (counter < 30) { counter = counter + 1; }
      }
    |}
  in
  let kernel, model = model_of source in
  let checker = Checker.create ~name:"pc" () in
  Checker.register_proposition checker
    (Esw_prop.var_pred model ~prop_name:"done30" "counter" (fun v -> v = 30));
  Checker.add_property_text checker ~name:"terminates" "F done30";
  Trigger.on_event kernel (Esw_model.pc_event model) checker;
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:10_000 kernel;
  check_verdict "termination observed" Verdict.True
    (Checker.verdict checker "terminates");
  Alcotest.(check bool) "one checker step per statement" true
    (abs (Checker.steps checker - Esw_model.statements model) <= 1)

let test_statement_bounds () =
  (* counter reaches 10 after ~3 statements per increment: the bounded
     property with a generous statement bound holds, a tight one fails *)
  let source =
    {|
      int counter;
      void main(void) {
        while (counter < 10) { counter = counter + 1; }
        while (true) { counter = counter; }
      }
    |}
  in
  let kernel, model = model_of source in
  let checker = Checker.create ~name:"tb" () in
  Checker.register_proposition checker
    (Esw_prop.var_eq model ~prop_name:"at10" "counter" 10);
  Checker.add_property_text checker ~name:"loose" "F[100] at10";
  Checker.add_property_text checker ~name:"tight" "F[5] at10";
  Trigger.on_event kernel (Esw_model.pc_event model) checker;
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:500 kernel;
  check_verdict "loose bound validated" Verdict.True
    (Checker.verdict checker "loose");
  check_verdict "tight bound violated" Verdict.False
    (Checker.verdict checker "tight")

let test_in_function_proposition () =
  let source =
    {|
      int n;
      void helper(void) { n = n + 1; }
      void main(void) {
        helper();
        while (true) { n = n; }
      }
    |}
  in
  let kernel, model = model_of source in
  let checker = Checker.create ~name:"fn" () in
  Checker.register_proposition checker (Esw_prop.in_function model "helper");
  Checker.add_property_text checker ~name:"enters_helper" "F in_helper";
  Trigger.on_event kernel (Esw_model.pc_event model) checker;
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:200 kernel;
  check_verdict "helper entry observed" Verdict.True
    (Checker.verdict checker "enters_helper")

(* a proposition finds its member when it is built: an unknown or array
   member is refused there, with the message a read of it gives *)
let test_members_resolved_when_built () =
  let _, model = model_of "int n; int arr[2]; void main(void) { n = 1; }" in
  let refused what build =
    match build () with
    | (_ : Proposition.t) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "unknown member" "Vm.read_global: unknown nosuch"
    (refused "unknown" (fun () -> Esw_prop.var_eq model "nosuch" 1));
  Alcotest.(check string) "array member" "Vm.read_global: array arr"
    (refused "array" (fun () ->
         Esw_prop.var_pred model ~prop_name:"p" "arr" (fun v -> v > 0)));
  let at1 = Esw_prop.var_eq model ~prop_name:"at1" "n" 1 in
  Alcotest.(check bool) "a known member samples" false (Proposition.is_true at1)

let test_crash_reported () =
  let kernel, model = model_of "void main(void) { assert(false); }" in
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:100 kernel;
  (match Esw_model.outcome model with
  | Esw_model.Crashed (Minic.Interp.Assertion_failed _) -> ()
  | _ -> Alcotest.fail "expected assertion crash");
  (* the fname assignment and the assertion, then the final sample *)
  Alcotest.(check int) "statements" 2 (Esw_model.statements model);
  Alcotest.(check int) "ends one time unit after the crash" 3
    (Kernel.now kernel)

let test_vm_devices_from_model () =
  (* software talks to a flash controller mapped into the VM *)
  let base = Cpu.Memory_map.flash_ctrl_base in
  let source =
    Printf.sprintf
      {|
        const int FC = %d;
        int result;
        void main(void) {
          *(FC + 1) = 3;
          *(FC + 2) = 999;
          *(FC + 0) = 1;
          while (*(FC + 3) != 0) { }
          *(FC + 1) = 3;
          result = *(FC + 2);
        }
      |}
      base
  in
  let kernel = Kernel.create () in
  let vmem = Vmem.create () in
  let flash = Dataflash.Flash.create Dataflash.Flash.default_config in
  let ctrl = Dataflash.Flash_ctrl.create flash in
  Vmem.map_device vmem (Dataflash.Flash_ctrl.ctrl_device ctrl ~base);
  let derived = derive source in
  let model =
    Esw_model.create kernel
      ~on_tick:(fun () -> Dataflash.Flash.tick flash)
      derived ~vmem
  in
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:10_000 kernel;
  (match Esw_model.outcome model with
  | Esw_model.Done _ -> ()
  | _ -> Alcotest.fail "model should finish");
  Alcotest.(check int) "flash programmed" 999
    (Dataflash.Flash.read_word flash 3);
  Alcotest.(check int) "read back" 999 (Esw_model.read_member model "result")

(* --- cross-approach agreement ------------------------------------------------- *)

(* The same software and the same property (unbounded, so timing-reference
   differences cannot matter) must produce the same verdict under both
   approaches. *)
let cross_program bad_after =
  Printf.sprintf
    {|
      int flag;
      int i;
      int bad;
      void main(void) {
        flag = 1;
        for (i = 0; i < 100; i++) {
          if (i == %d) { bad = 1; }
        }
        while (true) { }
      }
    |}
    bad_after

let approach1_verdict source =
  let program = Minic.C_parser.parse source in
  let info = Minic.Typecheck.check program in
  let soc = Platform.Soc.create () in
  Platform.Soc.load soc (Mcc.Codegen.compile info);
  let checker = Checker.create ~name:"x" () in
  Platform.Mem_prop.register_all checker
    [ Platform.Mem_prop.var_eq soc ~prop_name:"bad_set" "bad" 1 ];
  Checker.add_property_text checker ~name:"p" "G !bad_set";
  ignore (Platform.Esw_monitor.attach soc ~flag:"flag" checker);
  Platform.Soc.run ~max_cycles:8000 soc;
  Checker.verdict checker "p"

let approach2_verdict source =
  let kernel = Kernel.create () in
  let vmem = Vmem.create () in
  let derived = derive source in
  let model = Esw_model.create kernel derived ~vmem in
  let checker = Checker.create ~name:"x" () in
  Checker.register_proposition checker
    (Esw_prop.var_eq model ~prop_name:"bad_set" "bad" 1);
  Checker.add_property_text checker ~name:"p" "G !bad_set";
  Trigger.on_event kernel (Esw_model.pc_event model) checker;
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:3000 kernel;
  Checker.verdict checker "p"

let test_approaches_agree () =
  (* program that violates the property *)
  let bad = cross_program 50 in
  check_verdict "approach 1 sees violation" Verdict.False
    (approach1_verdict bad);
  check_verdict "approach 2 sees violation" Verdict.False
    (approach2_verdict bad);
  (* program that never violates (condition out of reach) *)
  let good = cross_program 1000 in
  check_verdict "approach 1 pending" Verdict.Pending (approach1_verdict good);
  check_verdict "approach 2 pending" Verdict.Pending (approach2_verdict good)

let test_speed_advantage_of_approach2 () =
  (* the same functional progress takes far fewer checker steps under the
     statement-time reference than cycles under the clock reference *)
  let source = cross_program 50 in
  (* approach 1: cycles until violation *)
  let program = Minic.C_parser.parse source in
  let info = Minic.Typecheck.check program in
  let soc = Platform.Soc.create () in
  Platform.Soc.load soc (Mcc.Codegen.compile info);
  let checker1 = Checker.create ~name:"a1" () in
  Platform.Mem_prop.register_all checker1
    [ Platform.Mem_prop.var_eq soc ~prop_name:"bad_set" "bad" 1 ];
  Checker.add_property_text checker1 ~name:"p" "G !bad_set";
  let steps1 = ref 0 in
  Checker.on_violation checker1 (fun _ step -> steps1 := step);
  ignore (Platform.Esw_monitor.attach soc ~flag:"flag" checker1);
  Platform.Soc.run ~max_cycles:8000 soc;
  (* approach 2: statements until violation *)
  let kernel = Kernel.create () in
  let vmem = Vmem.create () in
  let model = Esw_model.create kernel (derive source) ~vmem in
  let checker2 = Checker.create ~name:"a2" () in
  Checker.register_proposition checker2
    (Esw_prop.var_eq model ~prop_name:"bad_set" "bad" 1);
  Checker.add_property_text checker2 ~name:"p" "G !bad_set";
  let steps2 = ref 0 in
  Checker.on_violation checker2 (fun _ step -> steps2 := step);
  Trigger.on_event kernel (Esw_model.pc_event model) checker2;
  Esw_model.start model ~entry:"main";
  Kernel.run ~max_time:3000 kernel;
  Alcotest.(check bool) "both found the violation" true
    (!steps1 > 0 && !steps2 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "approach 1 needs more triggers (%d vs %d)" !steps1 !steps2)
    true
    (!steps1 > !steps2)

let suite_c2sc =
  [
    Alcotest.test_case "fname insertion" `Quick test_derive_inserts_fname;
    Alcotest.test_case "existing fname respected" `Quick
      test_derive_respects_existing_fname;
    Alcotest.test_case "members and VM accesses" `Quick
      test_derive_members_and_accesses;
    Alcotest.test_case "SystemC rendering" `Quick
      test_derive_systemc_rendering;
  ]

let suite_model =
  [
    Alcotest.test_case "vmem sparse + devices" `Quick
      test_vmem_sparse_and_devices;
    Alcotest.test_case "time = statement count" `Quick
      test_time_is_statement_count;
    Alcotest.test_case "pc event triggers checker" `Quick
      test_pc_event_triggers_checker;
    Alcotest.test_case "statement-time bounds" `Quick test_statement_bounds;
    Alcotest.test_case "in_function proposition" `Quick
      test_in_function_proposition;
    Alcotest.test_case "crash reported" `Quick test_crash_reported;
    Alcotest.test_case "members resolved when built" `Quick
      test_members_resolved_when_built;
    Alcotest.test_case "VM devices" `Quick test_vm_devices_from_model;
  ]

let suite_cross =
  [
    Alcotest.test_case "approaches agree" `Quick test_approaches_agree;
    Alcotest.test_case "approach 2 needs fewer triggers" `Quick
      test_speed_advantage_of_approach2;
  ]

let () =
  Alcotest.run "esw"
    [
      ("c2systemc", suite_c2sc);
      ("derived-model", suite_model);
      ("cross-approach", suite_cross);
    ]
