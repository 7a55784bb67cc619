(* Tests for the MiniC front end: lexer, parser, typechecker, pretty-printer
   and the reference interpreter. *)

module Ast = Minic.Ast
module C_lexer = Minic.C_lexer
module C_parser = Minic.C_parser
module Typecheck = Minic.Typecheck
module Interp = Minic.Interp
module Value = Minic.Value

(* the front ends raise Loc.Error; these read it as "LINE:COL: message" *)
let parsed source =
  Result.map_error Loc.to_string (Loc.catch (fun () -> C_parser.parse source))

let checked program =
  Result.map_error Loc.to_string (Loc.catch (fun () -> Typecheck.check program))

let parse_ok source =
  match parsed source with
  | Ok program -> program
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let check_ok source =
  match checked (parse_ok source) with
  | Ok info -> info
  | Error msg -> Alcotest.failf "unexpected type error: %s" msg

let run_main ?(fuel = 1_000_000) ?hooks source =
  let info = check_ok source in
  let env = Interp.create info in
  let hooks = match hooks with Some h -> h | None -> Interp.default_hooks () in
  let outcome = Interp.run ~fuel env hooks ~entry:"main" in
  (env, outcome)

let result_of source =
  match run_main source with
  | _, Interp.Finished v -> v
  | _, Interp.Halted -> Alcotest.fail "program halted"
  | _, Interp.Fuel_exhausted -> Alcotest.fail "fuel exhausted"

let check_returns name expected source =
  Alcotest.(check (option int)) name (Some expected) (result_of source)

(* --- value --------------------------------------------------------------- *)

let test_value_wrap () =
  Alcotest.(check int) "max wraps" (-2147483648) (Value.add 2147483647 1);
  Alcotest.(check int) "min wraps" 2147483647 (Value.sub (-2147483648) 1);
  Alcotest.(check int) "mul wraps" 0 (Value.mul 65536 65536);
  Alcotest.(check int) "neg min" (-2147483648) (Value.neg (-2147483648));
  Alcotest.(check int) "div trunc toward zero" (-2) (Value.div (-7) 3);
  Alcotest.(check int) "rem sign" (-1) (Value.rem (-7) 3);
  Alcotest.(check int) "asr sign extends" (-1) (Value.shift_right (-2) 1);
  Alcotest.(check int) "lsr fills zero" 2147483647
    (Value.shift_right_logical (-2) 1);
  Alcotest.(check int) "shift masked" (Value.shift_left 1 1)
    (Value.shift_left 1 33)

let qcheck_value_div_rem =
  QCheck.Test.make ~name:"a = b*(a/b) + a%%b" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let a = Value.wrap a and b = Value.wrap b in
      QCheck.assume (b <> 0);
      (* avoid the INT_MIN / -1 overflow corner, C UB *)
      QCheck.assume (not (a = -2147483648 && b = -1));
      Value.add (Value.mul b (Value.div a b)) (Value.rem a b) = a)

let qcheck_value_wrap_idempotent =
  QCheck.Test.make ~name:"wrap is idempotent and in range" ~count:500
    QCheck.int (fun v ->
      let w = Value.wrap v in
      Value.wrap w = w && w >= -2147483648 && w <= 2147483647)

(* --- lexer ----------------------------------------------------------------- *)

let test_lexer_literals () =
  let tokens = List.map fst (C_lexer.tokenize "42 0x2A 0xff") in
  Alcotest.(check bool) "decimal and hex" true
    (tokens = [ C_lexer.INT_LIT 42; C_lexer.INT_LIT 42; C_lexer.INT_LIT 255;
                C_lexer.EOF ])

let test_lexer_operators () =
  let tokens = List.map fst (C_lexer.tokenize "a<<2>>=b!=c==d&&e||f") in
  Alcotest.(check int) "token count" 15 (List.length tokens)

let test_lexer_comments () =
  let tokens =
    List.map fst (C_lexer.tokenize "x /* multi \n line */ y // tail\n z")
  in
  Alcotest.(check bool) "comments skipped" true
    (tokens
    = [ C_lexer.IDENT "x"; C_lexer.IDENT "y"; C_lexer.IDENT "z"; C_lexer.EOF ])

let test_lexer_error () =
  match C_lexer.tokenize "a $ b" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Loc.Error { pos; _ } ->
    Alcotest.(check int) "column" 3 pos.Ast.column

(* --- parser ---------------------------------------------------------------- *)

let test_parse_simple_program () =
  let program =
    parse_ok
      {|
        const int LIMIT = 10;
        int counter;
        int table[4];

        void tick(void) { counter = counter + 1; }

        int main(void) {
          for (counter = 0; counter < LIMIT; counter++) { tick(); }
          return counter;
        }
      |}
  in
  Alcotest.(check int) "globals" 3 (List.length program.Ast.globals);
  Alcotest.(check int) "funcs" 2 (List.length program.Ast.funcs)

let test_parse_const_in_array_size () =
  let program =
    parse_ok "const int N = 4; const int M = N * 2 + 1; int data[M];"
  in
  match Ast.find_global program "data" with
  | Some { Ast.g_type = Ast.Tarray 9; _ } -> ()
  | _ -> Alcotest.fail "array size should fold to 9"

let test_parse_sugar () =
  (* += and ++ desugar to plain assignments *)
  let program =
    parse_ok "int x; void main(void) { x += 3; x++; x -= 1; x--; }"
  in
  let func = Option.get (Ast.find_func program "main") in
  Alcotest.(check int) "four statements" 4 (List.length func.Ast.f_body);
  List.iter
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Assign (Ast.Lvar "x", _) -> ()
      | _ -> Alcotest.fail "expected assignment")
    func.Ast.f_body

let test_parse_intrinsics () =
  let program =
    parse_ok
      {|
        void main(void) {
          int v;
          v = nondet(0, 10);
          v = mem_read(0x100);
          mem_write(0x104, v);
          v = *(0x100);
          *(0x104) = v;
          assert(v >= 0);
          assume(v < 100);
          halt();
        }
      |}
  in
  let func = Option.get (Ast.find_func program "main") in
  let kinds =
    List.map
      (fun s ->
        match s.Ast.sdesc with
        | Ast.Decl _ -> "decl"
        | Ast.Assign (Ast.Lmem _, _) -> "memwrite"
        | Ast.Assign (_, { Ast.edesc = Ast.Nondet _; _ }) -> "nondet"
        | Ast.Assign (_, { Ast.edesc = Ast.Mem_read _; _ }) -> "memread"
        | Ast.Assign _ -> "assign"
        | Ast.Assert _ -> "assert"
        | Ast.Assume _ -> "assume"
        | Ast.Halt -> "halt"
        | _ -> "other")
      func.Ast.f_body
  in
  Alcotest.(check (list string)) "statement kinds"
    [ "decl"; "nondet"; "memread"; "memwrite"; "memread"; "memwrite";
      "assert"; "assume"; "halt" ]
    kinds

let test_parse_precedence () =
  let e = C_parser.parse_expr "1 + 2 * 3 == 7 && 1 < 2 | 1" in
  (* (&&) lowest: ((1 + (2*3)) == 7) && (1 < (2|1)) *)
  match e.Ast.edesc with
  | Ast.Binop (Ast.Land, _, _) -> ()
  | _ -> Alcotest.fail "&& should be at the top"

let test_parse_dangling_else () =
  let program =
    parse_ok "int x; void main(void) { if (x) if (x) x = 1; else x = 2; }"
  in
  let func = Option.get (Ast.find_func program "main") in
  match func.Ast.f_body with
  | [ { Ast.sdesc = Ast.If (_, inner, None); _ } ] -> (
    match inner.Ast.sdesc with
    | Ast.If (_, _, Some _) -> ()
    | _ -> Alcotest.fail "else should attach to inner if")
  | _ -> Alcotest.fail "expected single outer if"

let test_parse_errors () =
  let expect_error source =
    match parsed source with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" source
  in
  expect_error "int main(void) { return 0 }";
  expect_error "void f() { 1 + ; }";
  expect_error "int a[0];";
  expect_error "int a[x];" (* non-constant size *);
  expect_error "void f(void) { x = ; }"

(* --- typechecker ------------------------------------------------------------ *)

let test_typecheck_errors () =
  let expect_error source =
    match checked (parse_ok source) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected type error for %S" source
  in
  expect_error "void main(void) { x = 1; }";
  expect_error "void f(int a) {} void main(void) { f(); }";
  expect_error "void f(void) {} void main(void) { int x; x = f(); }";
  expect_error "const int C = 1; void main(void) { C = 2; }";
  expect_error "int a[3]; void main(void) { a = 1; }";
  expect_error "int x; void main(void) { x[0] = 1; }";
  expect_error "void main(void) { break; }";
  expect_error "void main(void) { continue; }";
  expect_error
    "void main(void) { switch (1) { case 1: break; case 1: break; } }";
  expect_error "int main(void) { return; }";
  expect_error "void main(void) { return 1; }";
  expect_error "int x; int x;";
  expect_error "void f(void) {} void f(void) {}";
  expect_error "int x = nondet(0, 1);"

(* [source] is rejected with the message starting "LINE:COL: ..." *)
let expect_rejected ~at source =
  match checked (parse_ok source) with
  | Ok _ -> Alcotest.failf "expected a type error at %s for %S" at source
  | Error msg ->
    let prefix = at ^ ": " in
    if not (String.starts_with ~prefix msg) then
      Alcotest.failf "expected a type error at %s for %S, got %s" at source msg

(* rule 1: a declaration is only an element of a statement sequence *)
let test_typecheck_declaration_positions () =
  expect_rejected ~at:"1:33" "int g; void main(void) { if (g) int x = 1; }";
  expect_rejected ~at:"1:41" "int g; void main(void) { if (g) {} else int x; }";
  expect_rejected ~at:"1:36" "int g; void main(void) { while (g) int x = 2; }";
  expect_rejected ~at:"1:29" "int g; void main(void) { do int x; while (g); }";
  expect_rejected ~at:"1:36" "int g; void main(void) { for (;g;) int x = 3; }";
  ignore
    (check_ok
       "int g; void main(void) { if (g) { int x = 1; g = x; } else { int x; } \
        for (int i = 0; i < 2; i = i + 1) { int y = i; g = y; } }");
  (* a for step can only be a declaration in a programmatic AST *)
  let step =
    Ast.stmt ~pos:{ Ast.line = 3; column = 4 } (Ast.Decl ("x", Ast.Tint, None))
  in
  let body = Ast.stmt (Ast.For (None, None, Some step, Ast.stmt (Ast.Block []))) in
  let main =
    { Ast.f_name = "main"; f_ret = Ast.Tvoid; f_params = []; f_body = [ body ];
      f_pos = Ast.dummy_pos }
  in
  match checked { Ast.globals = []; funcs = [ main ] } with
  | Error msg ->
    Alcotest.(check string)
      "for step" "3:4: declaration of x cannot be a for step" msg
  | Ok _ -> Alcotest.fail "expected a for-step declaration to be rejected"

(* rule 2: no name resolves to a local declared directly in a sibling
   case; code nested inside the declaring case may use it *)
let test_typecheck_sibling_cases () =
  expect_rejected ~at:"1:77"
    "int g; void main(void) { switch (g) { case 0: int x = 1; break; case 1: g = x; } }";
  expect_rejected ~at:"1:68"
    "int g; void main(void) { switch (g) { case 0: int x = 1; case 1: { x = 2; } } }";
  expect_rejected ~at:"1:67"
    "int g; void main(void) { switch (g) { case 0: int x; default: if (x) g = 1; } }";
  check_returns "nested switch sees the declaring case's local" 4
    {|
      int g;
      int main(void) {
        int a = 0;
        int b = 0;
        switch (a) {
          case 0:
            int x = 4;
            switch (b) { case 0: g = x; break; }
            break;
        }
        return g;
      }
    |};
  check_returns "a block in the declaring case" 6
    "int main(void) { int r = 0; switch (r) { case 0: int x = 6; { r = x; } } return r; }"

(* rule 3: a global initializer is a constant expression, evaluated once *)
let test_typecheck_global_initializers () =
  expect_rejected ~at:"1:11" "int g = 1 / 0;";
  expect_rejected ~at:"1:22" "int h = 3; int g = h % (h - h);";
  expect_rejected ~at:"1:24" "int a[2]; int g = 0 && a;";
  expect_rejected ~at:"1:19" "int a[2]; int g = a;";
  expect_rejected ~at:"1:9" "int g = h; int h = 1;";
  expect_rejected ~at:"1:9" "int g = nondet(0, 1);";
  let info =
    check_ok
      "int g = 0 && 1 / 0; int h = 1 || 1 % 0; int a = 5; \
       const int K = 3; int b = a * K - 2147483647 * 2; bool c = a > b; \
       int d;"
  in
  Alcotest.(check (list (pair string int)))
    "initial values"
    [ ("g", 0); ("h", 1); ("a", 5); ("K", 3); ("b", 17); ("c", 0); ("d", 0) ]
    (List.map
       (fun name -> (name, Typecheck.init_value info name))
       [ "g"; "h"; "a"; "K"; "b"; "c"; "d" ])

let test_typecheck_func_ids () =
  let info = check_ok "void a(void) {} void b(void) {} void main(void) {}" in
  Alcotest.(check int) "a" 1 (Typecheck.func_id info "a");
  Alcotest.(check int) "b" 2 (Typecheck.func_id info "b");
  Alcotest.(check int) "main" 3 (Typecheck.func_id info "main");
  Alcotest.(check (option string)) "reverse" (Some "b")
    (Typecheck.func_name_of_id info 2)

(* --- pretty-printer ----------------------------------------------------------- *)

let sample_program =
  {|
    const int SIZE = 8;
    int data[SIZE];
    int total;
    bool ready = false;

    int sum(int from, int upto) {
      int acc = 0;
      int i;
      for (i = from; i < upto; i++) {
        acc += data[i];
        if (acc > 100) { break; }
      }
      return acc;
    }

    void classify(int v) {
      switch (v) {
      case 0:
      case 1:
        total = 1;
        break;
      case 2:
        total = 2;
      default:
        total = total + 1;
        break;
      }
    }

    int main(void) {
      int i = 0;
      while (i < SIZE) { data[i] = i; i++; }
      do { i--; } while (i > 0);
      classify(sum(0, SIZE));
      return total;
    }
  |}

let test_pretty_roundtrip_idempotent () =
  let program = parse_ok sample_program in
  let printed = Pretty.program_to_string program in
  let reparsed = parse_ok printed in
  let printed_again = Pretty.program_to_string reparsed in
  Alcotest.(check string) "print . parse . print idempotent" printed
    printed_again;
  (* also behaviourally identical *)
  ignore (check_ok printed)

(* --- interpreter ----------------------------------------------------------------- *)

let test_interp_factorial () =
  check_returns "10!" 3628800
    {|
      int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
      int main(void) { return fact(10); }
    |}

let test_interp_gcd_loop () =
  check_returns "gcd(252, 105)" 21
    {|
      int main(void) {
        int a = 252;
        int b = 105;
        while (b != 0) {
          int t = b;
          b = a % b;
          a = t;
        }
        return a;
      }
    |}

let test_interp_arrays_sort () =
  check_returns "bubble sort checks order" 1
    {|
      const int N = 8;
      int a[N];
      int main(void) {
        int i;
        int j;
        for (i = 0; i < N; i++) { a[i] = N - i; }
        for (i = 0; i < N; i++) {
          for (j = 0; j + 1 < N - i; j++) {
            if (a[j] > a[j + 1]) {
              int t = a[j];
              a[j] = a[j + 1];
              a[j + 1] = t;
            }
          }
        }
        for (i = 0; i + 1 < N; i++) {
          if (a[i] > a[i + 1]) { return 0; }
        }
        return 1;
      }
    |}

let test_interp_switch_fallthrough () =
  check_returns "fallthrough accumulates" 30
    {|
      int r;
      void classify(int v) {
        switch (v) {
        case 1:
          r = r + 10;
        case 2:
          r = r + 20;
          break;
        case 3:
          r = r + 400;
          break;
        default:
          r = r + 8000;
          break;
        }
      }
      int main(void) { r = 0; classify(1); return r; }
    |}

let test_interp_switch_default () =
  check_returns "default taken" 8000
    {|
      int r;
      void classify(int v) {
        switch (v) {
        case 1: r = 10; break;
        default: r = 8000; break;
        }
      }
      int main(void) { classify(99); return r; }
    |}

let test_interp_continue () =
  check_returns "sum of odds below 10" 25
    {|
      int main(void) {
        int sum = 0;
        int i;
        for (i = 0; i < 10; i++) {
          if (i % 2 == 0) { continue; }
          sum += i;
        }
        return sum;
      }
    |}

let test_interp_short_circuit () =
  check_returns "&& and || do not evaluate rhs needlessly" 1
    {|
      int calls;
      int bump(void) { calls = calls + 1; return 1; }
      int main(void) {
        calls = 0;
        if (false && bump()) {}
        if (true || bump()) {}
        return calls == 0;
      }
    |}

let test_interp_division_by_zero () =
  let info = check_ok "int main(void) { int z = 0; return 1 / z; }" in
  let env = Interp.create info in
  match Interp.run env (Interp.default_hooks ()) ~entry:"main" with
  | _ -> Alcotest.fail "expected runtime error"
  | exception Interp.Runtime_error (msg, _) ->
    Alcotest.(check bool) "mentions division" true
      (String.length msg > 0)

let test_interp_assert_failure () =
  let info = check_ok "int main(void) { assert(1 == 2); return 0; }" in
  let env = Interp.create info in
  match Interp.run env (Interp.default_hooks ()) ~entry:"main" with
  | _ -> Alcotest.fail "expected assertion failure"
  | exception Interp.Assertion_failed _ -> ()

let test_interp_halt_and_fuel () =
  let _, outcome = run_main "void main(void) { while (true) { halt(); } }" in
  (match outcome with
  | Interp.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  let _, outcome2 = run_main ~fuel:100 "void main(void) { while (true) { } }" in
  match outcome2 with
  | Interp.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_interp_hooks_nondet_and_memory () =
  let source =
    {|
      int main(void) {
        int v = nondet(5, 9);
        mem_write(0x20, v * 2);
        return mem_read(0x20) + v;
      }
    |}
  in
  let info = check_ok source in
  let env = Interp.create info in
  let hooks =
    { (Interp.default_hooks ()) with Interp.nondet = (fun ~lo:_ ~hi -> hi) }
  in
  match Interp.run env hooks ~entry:"main" with
  | Interp.Finished (Some v) -> Alcotest.(check int) "9*2+9" 27 v
  | _ -> Alcotest.fail "expected finish"

let test_interp_statement_hook_and_fname () =
  let source =
    {|
      int fname;
      void helper(void) { fname = fname; }
      int main(void) { helper(); helper(); return 0; }
    |}
  in
  let info = check_ok source in
  let env = Interp.create info in
  let statements = ref 0 in
  let entries = ref [] in
  let hooks =
    {
      (Interp.default_hooks ()) with
      Interp.on_statement = (fun _ -> incr statements);
      on_function_entry = (fun name -> entries := name :: !entries);
    }
  in
  ignore (Interp.run env hooks ~entry:"main");
  Alcotest.(check (list string)) "function entries"
    [ "main"; "helper"; "helper" ] (List.rev !entries);
  Alcotest.(check bool) "statements counted" true (!statements >= 5);
  Alcotest.(check int) "env count matches" !statements
    (Interp.statements_executed env)

let test_interp_global_init_order () =
  check_returns "later initializers see earlier globals" 15
    {|
      int a = 5;
      int b = a * 2;
      int main(void) { return a + b; }
    |}

let test_interp_globals_snapshot () =
  let env, _ = run_main "int x; int y; void main(void) { x = 7; y = 9; }" in
  Alcotest.(check (list (pair string int)))
    "snapshot" [ ("x", 7); ("y", 9) ] (Interp.globals_snapshot env);
  Alcotest.(check int) "read_global" 7 (Interp.read_global env "x");
  Interp.write_global env "x" 123;
  Alcotest.(check int) "write_global" 123 (Interp.read_global env "x")

let test_interp_block_scoping () =
  check_returns "inner declaration shadows" 5
    {|
      int main(void) {
        int x = 5;
        {
          int x = 99;
          x = 100;
        }
        return x;
      }
    |}

let suite_value =
  [
    Alcotest.test_case "wrap semantics" `Quick test_value_wrap;
    QCheck_alcotest.to_alcotest qcheck_value_div_rem;
    QCheck_alcotest.to_alcotest qcheck_value_wrap_idempotent;
  ]

let suite_lexer =
  [
    Alcotest.test_case "literals" `Quick test_lexer_literals;
    Alcotest.test_case "operators" `Quick test_lexer_operators;
    Alcotest.test_case "comments" `Quick test_lexer_comments;
    Alcotest.test_case "error position" `Quick test_lexer_error;
  ]

let suite_parser =
  [
    Alcotest.test_case "simple program" `Quick test_parse_simple_program;
    Alcotest.test_case "const array sizes" `Quick
      test_parse_const_in_array_size;
    Alcotest.test_case "sugar" `Quick test_parse_sugar;
    Alcotest.test_case "intrinsics" `Quick test_parse_intrinsics;
    Alcotest.test_case "precedence" `Quick test_parse_precedence;
    Alcotest.test_case "dangling else" `Quick test_parse_dangling_else;
    Alcotest.test_case "errors" `Quick test_parse_errors;
  ]

let suite_typecheck =
  [
    Alcotest.test_case "rejections" `Quick test_typecheck_errors;
    Alcotest.test_case "function ids" `Quick test_typecheck_func_ids;
    Alcotest.test_case "declaration positions" `Quick
      test_typecheck_declaration_positions;
    Alcotest.test_case "sibling-case references" `Quick
      test_typecheck_sibling_cases;
    Alcotest.test_case "global initializers" `Quick
      test_typecheck_global_initializers;
  ]

let suite_pretty =
  [
    Alcotest.test_case "print/parse idempotent" `Quick
      test_pretty_roundtrip_idempotent;
  ]

let suite_interp =
  [
    Alcotest.test_case "factorial" `Quick test_interp_factorial;
    Alcotest.test_case "gcd" `Quick test_interp_gcd_loop;
    Alcotest.test_case "bubble sort" `Quick test_interp_arrays_sort;
    Alcotest.test_case "switch fallthrough" `Quick
      test_interp_switch_fallthrough;
    Alcotest.test_case "switch default" `Quick test_interp_switch_default;
    Alcotest.test_case "continue" `Quick test_interp_continue;
    Alcotest.test_case "short circuit" `Quick test_interp_short_circuit;
    Alcotest.test_case "division by zero" `Quick
      test_interp_division_by_zero;
    Alcotest.test_case "assert failure" `Quick test_interp_assert_failure;
    Alcotest.test_case "halt and fuel" `Quick test_interp_halt_and_fuel;
    Alcotest.test_case "hooks: nondet and memory" `Quick
      test_interp_hooks_nondet_and_memory;
    Alcotest.test_case "hooks: statements and entries" `Quick
      test_interp_statement_hook_and_fname;
    Alcotest.test_case "global init order" `Quick
      test_interp_global_init_order;
    Alcotest.test_case "globals snapshot" `Quick test_interp_globals_snapshot;
    Alcotest.test_case "block scoping" `Quick test_interp_block_scoping;
  ]

let () =
  Alcotest.run "minic"
    [
      ("value", suite_value);
      ("lexer", suite_lexer);
      ("parser", suite_parser);
      ("typecheck", suite_typecheck);
      ("pretty", suite_pretty);
      ("interp", suite_interp);
    ]
