(* Tests for the bounded model checker: AIG, bit-vector circuits (checked
   against Minic.Value), the CDCL SAT solver (checked against brute force),
   and end-to-end BMC including counterexample replay on the interpreter. *)

module B = Bmc
module Value = Minic.Value

(* --- aig -------------------------------------------------------------- *)

let test_aig_identities () =
  let g = Aig.create () in
  let a = Aig.fresh_input g "a" in
  let b = Aig.fresh_input g "b" in
  Alcotest.(check int) "and true" a (Aig.and_ g a Aig.true_);
  Alcotest.(check int) "and false" Aig.false_ (Aig.and_ g a Aig.false_);
  Alcotest.(check int) "idempotent" a (Aig.and_ g a a);
  Alcotest.(check int) "complement" Aig.false_ (Aig.and_ g a (Aig.neg a));
  Alcotest.(check int) "hash consed" (Aig.and_ g a b) (Aig.and_ g b a);
  Alcotest.(check int) "double negation" a (Aig.neg (Aig.neg a))

let test_aig_eval () =
  let g = Aig.create () in
  let a = Aig.fresh_input g "a" in
  let b = Aig.fresh_input g "b" in
  let f = Aig.xor_ g a b in
  let eval va vb =
    Aig.eval g ~assignment:(fun l -> if l = a then va else vb) f
  in
  Alcotest.(check bool) "xor ft" true (eval false true);
  Alcotest.(check bool) "xor tt" false (eval true true);
  Alcotest.(check bool) "xor ff" false (eval false false)

(* --- bitvec: constant folding must equal Value ------------------------- *)

let gen_int32 = QCheck.map Value.wrap QCheck.int

let qcheck_bitvec_constfold =
  QCheck.Test.make ~name:"bitvec on constants == Value" ~count:300
    QCheck.(pair gen_int32 gen_int32)
    (fun (x, y) ->
      let g = Aig.create () in
      let bx = Bitvec.const x and by = Bitvec.const y in
      let check op_bv op_val =
        Bitvec.to_const (op_bv g bx by) = Some (op_val x y)
      in
      check Bitvec.add Value.add
      && check Bitvec.sub Value.sub
      && check Bitvec.mul Value.mul
      && check Bitvec.logand Value.logand
      && check Bitvec.logor Value.logor
      && check Bitvec.logxor Value.logxor
      && check Bitvec.shift_left Value.shift_left
      && check Bitvec.shift_right_arith Value.shift_right
      && check Bitvec.shift_right_logical Value.shift_right_logical
      && Aig.eval g ~assignment:(fun _ -> false) (Bitvec.lt_signed g bx by)
         = (x < y)
      && Aig.eval g ~assignment:(fun _ -> false) (Bitvec.eq g bx by) = (x = y))

let qcheck_bitvec_divrem =
  QCheck.Test.make ~name:"bitvec divrem == Value div/rem" ~count:150
    QCheck.(pair gen_int32 gen_int32)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      QCheck.assume (not (x = -2147483648 && y = -1));
      let g = Aig.create () in
      let q, r = Bitvec.divrem g (Bitvec.const x) (Bitvec.const y) in
      Bitvec.to_const q = Some (Value.div x y)
      && Bitvec.to_const r = Some (Value.rem x y))

let qcheck_bitvec_symbolic_eval =
  QCheck.Test.make ~name:"bitvec circuits evaluate correctly" ~count:100
    QCheck.(pair gen_int32 gen_int32)
    (fun (x, y) ->
      let g = Aig.create () in
      let bx = Bitvec.fresh g "x" and by = Bitvec.fresh g "y" in
      let assignment lit =
        (* inputs were created in order: x.0..x.31 then y.0..y.31 *)
        match Aig.input_name g lit with
        | Some name ->
          let value = if name.[0] = 'x' then x else y in
          let bit =
            int_of_string (String.sub name 2 (String.length name - 2))
          in
          (value lsr bit) land 1 = 1
        | None -> false
      in
      let check circuit expected =
        Bitvec.eval g ~assignment circuit = expected
      in
      check (Bitvec.add g bx by) (Value.add x y)
      && check (Bitvec.mul g bx by) (Value.mul x y)
      && check (Bitvec.shift_left g bx by) (Value.shift_left x y)
      && check
           (Bitvec.mux g (Bitvec.lt_signed g bx by) bx by)
           (if x < y then x else y))

(* --- sat ----------------------------------------------------------------- *)

let solve clauses num_vars =
  fst (Sat.solve ~num_vars clauses)

let test_sat_trivial () =
  (match solve [] 2 with
  | Sat.Sat _ -> ()
  | _ -> Alcotest.fail "empty instance is sat");
  (match solve [ [| 1 |]; [| -1 |] ] 1 with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "unit conflict is unsat");
  match solve [ [| 1; 2 |]; [| -1; 2 |]; [| -2; 3 |] ] 3 with
  | Sat.Sat model ->
    Alcotest.(check bool) "2 then 3" true (model.(2) && model.(3))
  | _ -> Alcotest.fail "expected sat"

let test_sat_pigeonhole () =
  (* 4 pigeons, 3 holes: unsat; var p(i,h) = 3*i + h + 1 *)
  let var i h = (3 * i) + h + 1 in
  let clauses = ref [] in
  for i = 0 to 3 do
    clauses := [| var i 0; var i 1; var i 2 |] :: !clauses
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        clauses := [| -var i h; -var j h |] :: !clauses
      done
    done
  done;
  match solve !clauses 12 with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole must be unsat"

let brute_force clauses num_vars =
  let satisfied assignment =
    List.for_all
      (fun clause ->
        Array.exists
          (fun lit ->
            let v = abs lit in
            if lit > 0 then (assignment lsr v) land 1 = 1
            else (assignment lsr v) land 1 = 0)
          clause)
      clauses
  in
  let rec search assignment =
    if assignment >= 1 lsl (num_vars + 1) then None
    else if satisfied assignment then Some assignment
    else search (assignment + 2)
  in
  search 0

let qcheck_sat_vs_bruteforce =
  let gen =
    QCheck.Gen.(
      let num_vars = int_range 3 10 in
      num_vars >>= fun n ->
      let lit = map (fun (v, s) -> if s then v + 1 else -(v + 1))
          (pair (int_bound (n - 1)) bool) in
      let clause = map Array.of_list (list_size (int_range 1 3) lit) in
      map (fun cs -> (n, cs)) (list_size (int_range 1 25) clause))
  in
  QCheck.Test.make ~name:"cdcl == brute force" ~count:300
    (QCheck.make
       ~print:(fun (n, cs) ->
         Printf.sprintf "%d vars, clauses: %s" n
           (String.concat " "
              (List.map
                 (fun c ->
                   "("
                   ^ String.concat "|" (Array.to_list (Array.map string_of_int c))
                   ^ ")")
                 cs)))
       gen)
    (fun (num_vars, clauses) ->
      let reference = brute_force clauses num_vars in
      match solve clauses num_vars with
      | Sat.Sat model ->
        (* model must actually satisfy all clauses *)
        reference <> None
        && List.for_all
             (fun clause ->
               Array.exists
                 (fun lit ->
                   if lit > 0 then model.(lit) else not model.(-lit))
                 clause)
             clauses
      | Sat.Unsat -> reference = None
      | Sat.Timeout -> false)

(* --- bmc end-to-end -------------------------------------------------------- *)

let info_of source = Minic.Typecheck.check (Minic.C_parser.parse source)

let check ?unwind ?timeout_seconds source =
  B.check ?unwind ?timeout_seconds (info_of source)

let test_bmc_safe_program () =
  let report =
    check
      {|
        int main(void) {
          int x = nondet(0, 100);
          int y = x * 2;
          assert(y >= x);
          assert(y <= 200);
          return 0;
        }
      |}
  in
  match report.B.result with
  | B.Safe { complete = true } -> ()
  | _ -> Alcotest.fail "expected complete safe"

let test_bmc_finds_violation_and_witness () =
  let source =
    {|
      int main(void) {
        int x = nondet(0, 1000);
        int y = nondet(0, 1000);
        if (x + y == 1337) {
          assert(x != 637);
        }
        return 0;
      }
    |}
  in
  let report = check source in
  match report.B.result with
  | B.Unsafe cex ->
    Alcotest.(check string) "assertion violated" "assertion" cex.B.violated;
    (* replay the witness on the interpreter: it must hit the assertion *)
    let inputs = ref (List.map snd cex.B.input_values) in
    let hooks =
      {
        (Minic.Interp.default_hooks ()) with
        Minic.Interp.nondet =
          (fun ~lo:_ ~hi:_ ->
            match !inputs with
            | v :: rest ->
              inputs := rest;
              v
            | [] -> Alcotest.fail "witness too short");
      }
    in
    let env = Minic.Interp.create (info_of source) in
    (match Minic.Interp.run env hooks ~entry:"main" with
    | exception Minic.Interp.Assertion_failed _ -> ()
    | _ -> Alcotest.fail "witness does not reproduce the violation")
  | _ -> Alcotest.fail "expected unsafe"

let test_bmc_unwinding_bound () =
  let source =
    {|
      int main(void) {
        int i;
        for (i = 0; i < 100; i++) {
          assert(i < 50);
        }
        return 0;
      }
    |}
  in
  (* bound too small: the violating iteration is cut away *)
  (match (check ~unwind:10 source).B.result with
  | B.Safe { complete = false } -> ()
  | _ -> Alcotest.fail "expected incomplete safe at unwind 10");
  (* large enough bound: violation found *)
  match (check ~unwind:120 source).B.result with
  | B.Unsafe _ -> ()
  | _ -> Alcotest.fail "expected unsafe at unwind 120"

let test_bmc_division_check () =
  let report =
    check
      {|
        int main(void) {
          int d = nondet(0, 10);
          return 100 / d;
        }
      |}
  in
  (match report.B.result with
  | B.Unsafe cex ->
    Alcotest.(check string) "division vc" "division by zero" cex.B.violated
  | _ -> Alcotest.fail "expected division-by-zero counterexample");
  (* assume excludes the zero divisor *)
  let report2 =
    check
      {|
        int main(void) {
          int d = nondet(0, 10);
          assume(d != 0);
          return 100 / d;
        }
      |}
  in
  match report2.B.result with
  | B.Safe _ -> ()
  | _ -> Alcotest.fail "expected safe with assumption"

let test_bmc_array_bounds () =
  let report =
    check
      {|
        int a[4];
        int main(void) {
          int i = nondet(0, 10);
          a[i] = 1;
          return 0;
        }
      |}
  in
  match report.B.result with
  | B.Unsafe cex ->
    Alcotest.(check bool) "bounds vc" true
      (String.length cex.B.violated > 0);
    (* witness index must actually be out of bounds *)
    (match cex.B.input_values with
    | [ (_, v) ] -> Alcotest.(check bool) "index oob" true (v > 3)
    | _ -> Alcotest.fail "one input expected")
  | _ -> Alcotest.fail "expected bounds counterexample"

let test_bmc_memory_model () =
  let report =
    check
      {|
        int main(void) {
          int a = nondet(0, 50);
          mem_write(0x100 + a, 77);
          assert(mem_read(0x100 + a) == 77);
          int other = mem_read(0x99);
          assert(other == 0);
          return 0;
        }
      |}
  in
  match report.B.result with
  | B.Safe _ -> ()
  | _ -> Alcotest.fail "memory round trip should be safe"

let test_bmc_function_calls_and_arrays () =
  let report =
    check
      {|
        const int N = 6;
        int data[N];
        void fill(int seed) {
          int i;
          for (i = 0; i < N; i++) { data[i] = seed + i; }
        }
        int total(void) {
          int i;
          int acc = 0;
          for (i = 0; i < N; i++) { acc += data[i]; }
          return acc;
        }
        int main(void) {
          int s = nondet(0, 10);
          fill(s);
          assert(total() == 6 * s + 15);
          return 0;
        }
      |}
  in
  match report.B.result with
  | B.Safe { complete = true } -> ()
  | _ -> Alcotest.fail "arithmetic identity should hold"

let test_bmc_switch_and_recursion () =
  let report =
    check
      {|
        int fib(int n) {
          if (n <= 1) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        int classify(int v) {
          switch (v) {
          case 0: return 100;
          case 1: return 200;
          default: return 300;
          }
        }
        int main(void) {
          assert(fib(10) == 55);
          assert(classify(0) == 100);
          assert(classify(1) == 200);
          assert(classify(7) == 300);
          return 0;
        }
      |}
  in
  match report.B.result with
  | B.Safe _ -> ()
  | other ->
    ignore other;
    Alcotest.fail "fib/switch facts should hold"

let test_bmc_timeout () =
  let report =
    check ~unwind:100000 ~timeout_seconds:0.3
      {|
        int main(void) {
          int i;
          int acc = 1;
          for (i = 0; i < 1000000; i++) {
            acc = acc * 31 + i;
          }
          assert(acc != 0 || acc == 0);
          return 0;
        }
      |}
  in
  match report.B.result with
  | B.Out_of_time -> ()
  | _ -> Alcotest.fail "expected timeout while unwinding"

(* a missing entry is a give-up without a source position *)
let test_bmc_missing_entry () =
  let info = info_of "int x; void helper(void) { x = 1; }" in
  List.iter
    (fun entry ->
      match (B.check ~entry info).B.result with
      | B.Gave_up msg ->
        Alcotest.(check string) entry ("no entry function " ^ entry) msg
      | _ -> Alcotest.fail "expected a give-up")
    [ "main"; "nope" ]

(* --- spec inlining ------------------------------------------------------------ *)

let spec_program sets_ack =
  Printf.sprintf
    {|
      int req;
      int ack;
      int main(void) {
        int i;
        for (i = 0; i < 12; i++) {
          if (i == 1) { req = 1; }
          if (i == 3) { ack = %d; }
        }
        return 0;
      }
    |}
    (if sets_ack then 1 else 0)

let instrumented sets_ack =
  Spec_inline.instrument
    ~property:(Sctc.Prop.parse_exn ~syntax:`Fltl "G (p_req -> F[10] p_ack)")
    ~predicates:[ ("p_req", "req == 1"); ("p_ack", "ack == 1") ]
    (info_of (spec_program sets_ack))

let test_spec_inline_violation () =
  (* never acks: the bounded response property must fail *)
  let report = B.check ~unwind:30 (instrumented false) in
  (match report.B.result with
  | B.Unsafe _ -> ()
  | _ -> Alcotest.fail "expected temporal violation");
  (* acks in time: safe *)
  let report2 = B.check ~unwind:30 (instrumented true) in
  match report2.B.result with
  | B.Safe _ -> ()
  | _ -> Alcotest.fail "expected temporal property to hold"

let test_spec_inline_reports_states () =
  let info = instrumented true in
  match Spec_inline.monitor_state_count info with
  | Some n -> Alcotest.(check bool) "states recorded" true (n > 3)
  | None -> Alcotest.fail "no monitor state count"

let test_spec_inline_agrees_with_interpreter () =
  (* the instrumented program's assertion fires on the interpreter too *)
  let info = instrumented false in
  let env = Minic.Interp.create info in
  match Minic.Interp.run env (Minic.Interp.default_hooks ()) ~entry:"main" with
  | exception Minic.Interp.Assertion_failed _ -> ()
  | _ -> Alcotest.fail "interpreter should also catch the violation"

let suite_aig =
  [
    Alcotest.test_case "identities" `Quick test_aig_identities;
    Alcotest.test_case "eval" `Quick test_aig_eval;
    QCheck_alcotest.to_alcotest qcheck_bitvec_constfold;
    QCheck_alcotest.to_alcotest qcheck_bitvec_divrem;
    QCheck_alcotest.to_alcotest qcheck_bitvec_symbolic_eval;
  ]

let suite_sat =
  [
    Alcotest.test_case "trivial" `Quick test_sat_trivial;
    Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
    QCheck_alcotest.to_alcotest qcheck_sat_vs_bruteforce;
  ]

let suite_bmc =
  [
    Alcotest.test_case "safe program" `Quick test_bmc_safe_program;
    Alcotest.test_case "violation with witness" `Quick
      test_bmc_finds_violation_and_witness;
    Alcotest.test_case "unwinding bound" `Quick test_bmc_unwinding_bound;
    Alcotest.test_case "division check" `Quick test_bmc_division_check;
    Alcotest.test_case "array bounds" `Quick test_bmc_array_bounds;
    Alcotest.test_case "memory model" `Quick test_bmc_memory_model;
    Alcotest.test_case "calls and arrays" `Quick
      test_bmc_function_calls_and_arrays;
    Alcotest.test_case "switch and recursion" `Quick
      test_bmc_switch_and_recursion;
    Alcotest.test_case "timeout" `Quick test_bmc_timeout;
    Alcotest.test_case "missing entry" `Quick test_bmc_missing_entry;
  ]

let suite_spec =
  [
    Alcotest.test_case "temporal violation" `Quick test_spec_inline_violation;
    Alcotest.test_case "state count" `Quick test_spec_inline_reports_states;
    Alcotest.test_case "interpreter agreement" `Quick
      test_spec_inline_agrees_with_interpreter;
  ]

let () =
  Alcotest.run "bmc"
    [
      ("aig+bitvec", suite_aig);
      ("sat", suite_sat);
      ("bmc", suite_bmc);
      ("spec-inline", suite_spec);
    ]
