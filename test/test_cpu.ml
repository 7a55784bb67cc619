(* Tests for the microprocessor model and the MiniC compiler.  The key
   check is differential: MiniC programs compiled to the ISA and executed
   on the CPU model must agree with the reference interpreter on return
   values and final global-variable state. *)

module Isa = Cpu.Isa
module Encode = Cpu.Encode
module Asm = Cpu.Asm
module Bus = Cpu.Bus
module Ram = Cpu.Ram
module Cpu_core = Cpu.Cpu_core
module Map = Cpu.Memory_map
module Codegen = Mcc.Codegen
module Symtab = Mcc.Symtab

(* --- encode/decode ------------------------------------------------------- *)

let gen_instr =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let imm14 = int_range Isa.imm14_min Isa.imm14_max in
  let imm22 = int_range Isa.imm22_min Isa.imm22_max in
  let uimm22 = int_bound 0x3FFFFF in
  let alu_op =
    oneofl
      [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Rem; Isa.And; Isa.Or;
        Isa.Xor; Isa.Sll; Isa.Srl; Isa.Sra; Isa.Slt; Isa.Sle; Isa.Seq ]
  in
  let cond = oneofl [ Isa.Beq; Isa.Bne; Isa.Blt; Isa.Bge ] in
  oneof
    [
      map3 (fun op rd (rs1, rs2) -> Isa.Alu (op, rd, rs1, rs2)) alu_op reg
        (pair reg reg);
      map3 (fun op rd (rs1, imm) -> Isa.Alui (op, rd, rs1, imm)) alu_op reg
        (pair reg imm14);
      map2 (fun rd imm -> Isa.Lui (rd, imm)) reg uimm22;
      map3 (fun rd rs1 imm -> Isa.Load (rd, rs1, imm)) reg reg imm14;
      map3 (fun rs2 rs1 imm -> Isa.Store (rs2, rs1, imm)) reg reg imm14;
      map3 (fun c (rs1, rs2) imm -> Isa.Branch (c, rs1, rs2, imm)) cond
        (pair reg reg) imm14;
      map2 (fun rd imm -> Isa.Jal (rd, imm)) reg imm22;
      map3 (fun rd rs1 imm -> Isa.Jalr (rd, rs1, imm)) reg reg imm14;
      map (fun code -> Isa.Trap code) (int_bound 100);
      return Isa.Halt;
      return Isa.Nop;
    ]

let arbitrary_instr =
  QCheck.make ~print:Isa.to_string gen_instr

let qcheck_encode_decode =
  QCheck.Test.make ~name:"decode . encode = id" ~count:1000 arbitrary_instr
    (fun instr -> Encode.decode (Encode.encode instr) = instr)

let qcheck_asm_roundtrip =
  QCheck.Test.make ~name:"assemble . disassemble = id" ~count:500
    arbitrary_instr (fun instr ->
      match Asm.assemble (Isa.to_string instr) with
      | [ parsed ] -> parsed = instr
      | _ -> false)

let test_encode_imm_range () =
  match Encode.encode (Isa.Alui (Isa.Add, 1, 1, 100000)) with
  | _ -> Alcotest.fail "expected range error"
  | exception Encode.Immediate_out_of_range _ -> ()

(* the assembler reports what the encoder rejects at the line's first
   column, so assemble_words never raises Immediate_out_of_range *)
let test_asm_imm_range () =
  let error source =
    match Loc.catch (fun () -> Asm.assemble_words source) with
    | Ok _ -> Alcotest.failf "%S assembled" source
    | Error e -> Loc.to_string e
  in
  Alcotest.(check string) "ALU immediate"
    "2:3: immediate out of range in addi r1, r1, 100000"
    (error "nop\n  addi r1, r1, 100000");
  Alcotest.(check string) "negative lui" "1:1: immediate out of range in lui r1, -1"
    (error "lui r1, -1");
  Alcotest.(check string) "branch offset"
    "1:1: immediate out of range in beq r1, r2, 9000"
    (error "beq r1, r2, 9000")

(* --- bus / ram ------------------------------------------------------------ *)

let test_bus_devices () =
  let bus = Bus.create () in
  let ram = Ram.create ~name:"ram" ~base:0 ~size:16 in
  Bus.attach bus (Ram.device ram);
  let last_written = ref (-1) in
  Bus.attach bus
    {
      Bus.dev_name = "port";
      base = 100;
      size = 1;
      read = (fun _ -> 42);
      write = (fun _ v -> last_written := v);
    };
  Bus.write bus 3 77;
  Alcotest.(check int) "ram readback" 77 (Bus.read bus 3);
  Alcotest.(check int) "device read" 42 (Bus.read bus 100);
  Bus.write bus 100 5;
  Alcotest.(check int) "device write seen" 5 !last_written;
  Alcotest.(check int) "reads counted" 2 (Bus.reads bus);
  Alcotest.(check int) "writes counted" 2 (Bus.writes bus);
  (match Bus.read bus 50 with
  | _ -> Alcotest.fail "expected bus error"
  | exception Bus.Bus_error 50 -> ());
  match Bus.attach bus (Ram.device (Ram.create ~name:"clash" ~base:8 ~size:4)) with
  | _ -> Alcotest.fail "expected overlap rejection"
  | exception Invalid_argument _ -> ()

(* --- cpu core on assembly programs ----------------------------------------- *)

let machine_with words =
  let bus = Bus.create () in
  let ram = Ram.create ~name:"ram" ~base:0 ~size:0x8000 in
  Bus.attach bus (Ram.device ram);
  Ram.load ram 0 words;
  (Cpu_core.create bus ~start_pc:0 ~stack_pointer:Map.stack_top (), ram)

let test_cpu_sum_loop () =
  (* sum 1..10 into r4 *)
  let source =
    {|
      addi r4, r0, 0
      addi r5, r0, 1
      addi r6, r0, 10
    loop:
      add r4, r4, r5
      addi r5, r5, 1
      sle r7, r5, r6
      bne r7, r0, loop
      halt
    |}
  in
  let cpu, _ = machine_with (Asm.assemble_words source) in
  (match Cpu_core.run ~max_instructions:1000 cpu with
  | Cpu_core.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check int) "sum" 55 (Cpu_core.reg cpu 4)

let test_cpu_call_return () =
  let source =
    {|
      addi r4, r0, 21
      jal r1, double
      halt
    double:
      add r4, r4, r4
      jalr r0, r1, 0
    |}
  in
  let cpu, _ = machine_with (Asm.assemble_words source) in
  ignore (Cpu_core.run ~max_instructions:100 cpu);
  Alcotest.(check int) "doubled" 42 (Cpu_core.reg cpu 4)

let test_cpu_memory_ops () =
  let source =
    {|
      addi r4, r0, 123
      sw r4, 200(r0)
      lw r5, 200(r0)
      halt
    |}
  in
  let cpu, ram = machine_with (Asm.assemble_words source) in
  ignore (Cpu_core.run ~max_instructions:10 cpu);
  Alcotest.(check int) "stored" 123 (Ram.get ram 200);
  Alcotest.(check int) "loaded" 123 (Cpu_core.reg cpu 5)

let test_cpu_traps () =
  let cpu, _ = machine_with (Asm.assemble_words "trap 7") in
  (match Cpu_core.run ~max_instructions:10 cpu with
  | Cpu_core.Trapped 7 -> ()
  | _ -> Alcotest.fail "expected trap 7");
  (* division by zero traps *)
  let cpu2, _ =
    machine_with (Asm.assemble_words "addi r4, r0, 1\ndiv r4, r4, r0")
  in
  (match Cpu_core.run ~max_instructions:10 cpu2 with
  | Cpu_core.Trapped code ->
    Alcotest.(check int) "division trap" Isa.trap_division code
  | _ -> Alcotest.fail "expected division trap");
  (* unmapped access traps *)
  let cpu3, _ = machine_with (Asm.assemble_words "lw r4, 0(r0)\nhalt") in
  ignore cpu3;
  let bus = Bus.create () in
  Bus.attach bus (Ram.device (Ram.create ~name:"tiny" ~base:0 ~size:4));
  let cpu4 = Cpu_core.create bus ~start_pc:0 () in
  Ram.load (Ram.create ~name:"x" ~base:0 ~size:4) 0 [];
  ignore cpu4

let test_cpu_r0_is_zero () =
  let cpu, _ = machine_with (Asm.assemble_words "addi r0, r0, 5\nhalt") in
  ignore (Cpu_core.run ~max_instructions:10 cpu);
  Alcotest.(check int) "r0 still zero" 0 (Cpu_core.reg cpu 0)

(* --- differential: compiled MiniC vs interpreter ---------------------------- *)

(* Deterministic raw stimulus stream shared by both sides. *)
let make_raw_stream seed =
  let state = ref seed in
  fun () ->
    (* xorshift-ish, kept non-negative *)
    state := (!state * 1103515245) + 12345;
    (!state lsr 7) land 0xFFFFF

let build_machine words raw =
  let bus = Bus.create () in
  let ram = Ram.create ~name:"ram" ~base:0 ~size:0x8000 in
  Bus.attach bus (Ram.device ram);
  Ram.load ram 0 words;
  Bus.attach bus
    {
      Bus.dev_name = "stimulus";
      base = Map.stimulus_port;
      size = 1;
      read = (fun _ -> raw ());
      write = (fun _ _ -> ());
    };
  Bus.attach bus
    {
      Bus.dev_name = "console";
      base = Map.console_port;
      size = 1;
      read = (fun _ -> 0);
      write = (fun _ _ -> ());
    };
  (Cpu_core.create bus ~start_pc:0 ~stack_pointer:Map.stack_top (), ram)

let run_differential ?(fuel = 2_000_000) source =
  let program =
    match Loc.catch (fun () -> Minic.C_parser.parse source) with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" (Loc.to_string e)
  in
  let info =
    match Loc.catch (fun () -> Minic.Typecheck.check program) with
    | Ok info -> info
    | Error e -> Alcotest.failf "typecheck: %s" (Loc.to_string e)
  in
  (* interpreter side *)
  let env = Minic.Interp.create info in
  let raw_i = make_raw_stream 7 in
  let hooks =
    {
      (Minic.Interp.default_hooks ()) with
      Minic.Interp.nondet =
        (fun ~lo ~hi -> lo + (raw_i () mod (hi - lo + 1)));
    }
  in
  let interp_result =
    match Minic.Interp.run ~fuel env hooks ~entry:"main" with
    | Minic.Interp.Finished v -> v
    | Minic.Interp.Halted -> Alcotest.fail "interp halted"
    | Minic.Interp.Fuel_exhausted -> Alcotest.fail "interp out of fuel"
  in
  (* CPU side *)
  let compiled = Codegen.compile ~fname_tracking:false info in
  let raw_c = make_raw_stream 7 in
  let cpu, ram = build_machine compiled.Codegen.words raw_c in
  (match Cpu_core.run ~max_instructions:20_000_000 cpu with
  | Cpu_core.Halted -> ()
  | Cpu_core.Trapped code -> Alcotest.failf "cpu trapped with code %d" code
  | Cpu_core.Running -> Alcotest.fail "cpu exceeded instruction budget");
  let cpu_result = Cpu_core.reg cpu Isa.reg_rv in
  (match interp_result with
  | Some expected ->
    Alcotest.(check int) "return values agree" expected cpu_result
  | None -> ());
  (* compare final global state *)
  List.iter
    (fun (name, value) ->
      if name <> "fname" then
        let addr = Symtab.address_of compiled.Codegen.symtab name in
        Alcotest.(check int)
          (Printf.sprintf "global %s agrees" name)
          value (Ram.get ram addr))
    (Minic.Interp.globals_snapshot env)

let diff_case name source =
  Alcotest.test_case name `Quick (fun () -> run_differential source)

let differential_cases =
  [
    diff_case "arithmetic and globals"
      {|
        int a;
        int b;
        int main(void) {
          a = 7 * 6 - 2;
          b = (a << 2) / 5 - (a % 7) + (a ^ 12) - (a & 5) + (a | 3);
          return a + b;
        }
      |};
    diff_case "factorial recursion"
      {|
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        int main(void) { return fact(12); }
      |};
    diff_case "fibonacci loop"
      {|
        int main(void) {
          int a = 0;
          int b = 1;
          int i;
          for (i = 0; i < 30; i++) {
            int t = a + b;
            a = b;
            b = t;
          }
          return a;
        }
      |};
    diff_case "arrays and nested loops"
      {|
        const int N = 12;
        int data[N];
        int main(void) {
          int i;
          int j;
          for (i = 0; i < N; i++) { data[i] = (N - i) * 3 % 7; }
          for (i = 0; i < N; i++) {
            for (j = 0; j + 1 < N; j++) {
              if (data[j] > data[j + 1]) {
                int t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
              }
            }
          }
          int sum = 0;
          for (i = 0; i < N; i++) { sum = sum * 10 + data[i]; }
          return sum;
        }
      |};
    diff_case "switch fallthrough and default"
      {|
        int acc;
        void bump(int v) {
          switch (v) {
          case 0:
            acc += 1;
          case 1:
            acc += 10;
            break;
          case 2:
            acc += 100;
            break;
          default:
            acc += 1000;
            break;
          }
        }
        int main(void) {
          int i;
          for (i = 0; i < 5; i++) { bump(i); }
          return acc;
        }
      |};
    diff_case "short circuit with side effects"
      {|
        int calls;
        int yes(void) { calls++; return 1; }
        int no(void) { calls++; return 0; }
        int main(void) {
          calls = 0;
          if (no() && yes()) { calls += 100; }
          if (yes() || no()) { calls += 1000; }
          return calls;
        }
      |};
    diff_case "deep expression (register spill)"
      {|
        int main(void) {
          int a = 1;
          return (((((((a + 2) * 3 + (4 - a)) + ((5 + a) * (6 - a)))
                 + (((7 + a) + 8) * ((9 - a) + 10)))
                 + ((((11 + a) * 2) + ((12 - a) * 3)) + (((13 + a) - 4) * ((14 - a) + 5)))))
                 + ((15 + a) * (16 - a)));
        }
      |};
    diff_case "nondet stimulus agreement"
      {|
        int main(void) {
          int sum = 0;
          int i;
          for (i = 0; i < 20; i++) {
            sum = sum + nondet(3, 17);
          }
          return sum;
        }
      |};
    diff_case "memory intrinsics"
      {|
        int main(void) {
          int i;
          for (i = 0; i < 8; i++) { mem_write(0x5000 + i, i * i); }
          int sum = 0;
          for (i = 0; i < 8; i++) { sum += mem_read(0x5000 + i); }
          return sum + *(0x5003);
        }
      |};
    diff_case "global initializers"
      {|
        const int K = 4;
        int a = K * 10;
        int b = a + 2;
        int main(void) { return a + b; }
      |};
    diff_case "do-while and continue"
      {|
        int main(void) {
          int sum = 0;
          int i = 0;
          do {
            i++;
            if (i % 3 == 0) { continue; }
            sum += i;
          } while (i < 20);
          return sum;
        }
      |};
    diff_case "32-bit wraparound"
      {|
        int main(void) {
          int big = 2147483647;
          int wrapped = big + 1;
          int half = wrapped / 2;
          return half + (big >> 16) + (wrapped >> 30);
        }
      |};
  ]

(* --- trap behaviour of compiled assert/assume ------------------------------- *)

let compile_and_run source =
  let program = Minic.C_parser.parse source in
  let info = Minic.Typecheck.check program in
  let compiled = Codegen.compile info in
  let raw = make_raw_stream 3 in
  let cpu, _ = build_machine compiled.Codegen.words raw in
  (Cpu_core.run ~max_instructions:1_000_000 cpu, cpu, compiled)

let test_compiled_assert_traps () =
  let reason, _, _ =
    compile_and_run "int main(void) { assert(1 == 2); return 0; }"
  in
  match reason with
  | Cpu_core.Trapped code ->
    Alcotest.(check int) "assert trap" Isa.trap_assert code
  | _ -> Alcotest.fail "expected assert trap"

let test_compiled_fname_tracking () =
  let source =
    {|
      int fname;
      int helper(void) { return 1; }
      int main(void) { return helper(); }
    |}
  in
  let reason, cpu, compiled = compile_and_run source in
  (match reason with
  | Cpu_core.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  (* last function entered was helper... then control returned to main,
     but fname records entries only; the final value is helper's id since
     main entered first *)
  let fname_addr = Symtab.fname_address compiled.Codegen.symtab in
  let final = Bus.peek (Cpu_core.bus cpu) fname_addr in
  let info = Minic.Typecheck.check (Minic.C_parser.parse source) in
  Alcotest.(check int) "fname holds helper id"
    (Minic.Typecheck.func_id info "helper")
    final

let test_symtab_layout () =
  let source = "int a; int arr[5]; int b; void main(void) { a = 1; }" in
  let info = Minic.Typecheck.check (Minic.C_parser.parse source) in
  let symtab = Symtab.build info in
  let a = Symtab.address_of symtab "a" in
  let arr = Symtab.address_of symtab "arr" in
  let b = Symtab.address_of symtab "b" in
  Alcotest.(check int) "a at data base" Map.data_base a;
  Alcotest.(check int) "arr after a" (Map.data_base + 1) arr;
  Alcotest.(check int) "b after arr" (Map.data_base + 6) b;
  Alcotest.(check int) "arr size" 5 (Symtab.size_of symtab "arr");
  Alcotest.(check bool) "hidden fname allocated" true
    (Symtab.fname_address symtab > b)

let suite_encoding =
  [
    QCheck_alcotest.to_alcotest qcheck_encode_decode;
    QCheck_alcotest.to_alcotest qcheck_asm_roundtrip;
    Alcotest.test_case "immediate range" `Quick test_encode_imm_range;
    Alcotest.test_case "assembler immediate range" `Quick test_asm_imm_range;
  ]

let suite_machine =
  [
    Alcotest.test_case "bus devices" `Quick test_bus_devices;
    Alcotest.test_case "sum loop" `Quick test_cpu_sum_loop;
    Alcotest.test_case "call/return" `Quick test_cpu_call_return;
    Alcotest.test_case "memory ops" `Quick test_cpu_memory_ops;
    Alcotest.test_case "traps" `Quick test_cpu_traps;
    Alcotest.test_case "r0 is zero" `Quick test_cpu_r0_is_zero;
  ]

let suite_compiler =
  differential_cases
  @ [
      Alcotest.test_case "compiled assert traps" `Quick
        test_compiled_assert_traps;
      Alcotest.test_case "fname tracking" `Quick test_compiled_fname_tracking;
      Alcotest.test_case "symtab layout" `Quick test_symtab_layout;
    ]

let () =
  Alcotest.run "cpu"
    [
      ("encoding", suite_encoding);
      ("machine", suite_machine);
      ("compiler", suite_compiler);
    ]
