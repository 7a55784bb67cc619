(* Randomized differential testing: generated MiniC programs must behave
   identically on the reference interpreter and when compiled to the ISA
   and executed on the CPU model — return value and final global state.
   This exercises the code generator (register-stack evaluation, spills,
   calls, control flow) far beyond the hand-written cases. *)

module Ast = Minic.Ast

(* ---- generator of small well-typed programs ---------------------------- *)

let globals = [ "g0"; "g1"; "g2" ]

(* expressions over the given readable variables; division and modulo get
   divisors forced non-zero ((e & 7) | 1), shifts are masked by both
   backends identically so any amount is fine *)
let gen_expr vars =
  let open QCheck.Gen in
  sized_size (int_bound 6) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            map Ast.int_lit (int_range (-1000) 1000);
            map Ast.var (oneofl vars);
          ]
      else
        let sub = self (n / 2) in
        let bin op =
          map2 (fun a b -> Ast.expr (Ast.Binop (op, a, b))) sub sub
        in
        let nonzero e =
          Ast.expr
            (Ast.Binop
               ( Ast.Bor,
                 Ast.expr (Ast.Binop (Ast.Band, e, Ast.int_lit 7)),
                 Ast.int_lit 1 ))
        in
        oneof
          [
            map Ast.var (oneofl vars);
            bin Ast.Add;
            bin Ast.Sub;
            bin Ast.Mul;
            map2
              (fun a b -> Ast.expr (Ast.Binop (Ast.Div, a, nonzero b)))
              sub sub;
            map2
              (fun a b -> Ast.expr (Ast.Binop (Ast.Mod, a, nonzero b)))
              sub sub;
            bin Ast.Band;
            bin Ast.Bor;
            bin Ast.Bxor;
            bin Ast.Shl;
            bin Ast.Shr;
            bin Ast.Lt;
            bin Ast.Le;
            bin Ast.Eq;
            bin Ast.Ne;
            bin Ast.Land;
            bin Ast.Lor;
            map (fun a -> Ast.expr (Ast.Unop (Ast.Neg, a))) sub;
            map (fun a -> Ast.expr (Ast.Unop (Ast.Bitnot, a))) sub;
            map (fun a -> Ast.expr (Ast.Unop (Ast.Lognot, a))) sub;
          ])

(* statements: assignments, if/else, bounded for loops, helper calls *)
let gen_stmts ~with_call =
  let open QCheck.Gen in
  let loop_counter = ref 0 in
  let rec stmts vars depth n =
    if n <= 0 then return []
    else
      stmt vars depth >>= fun s ->
      stmts vars depth (n - 1) >>= fun rest -> return (s :: rest)
  and stmt vars depth =
    let assign =
      map2
        (fun target e -> Ast.stmt (Ast.Assign (Ast.Lvar target, e)))
        (oneofl globals) (gen_expr vars)
    in
    let base_choices =
      [ assign ]
      @ (if with_call then
           [
             map
               (fun e ->
                 Ast.stmt
                   (Ast.Assign
                      (Ast.Lvar "g0", Ast.expr (Ast.Call ("helper", [ e ])))))
               (gen_expr vars);
           ]
         else [])
    in
    if depth <= 0 then oneof base_choices
    else
      oneof
        (base_choices
        @ [
            (* if / else *)
            (gen_expr vars >>= fun cond ->
             stmts vars (depth - 1) 2 >>= fun then_body ->
             stmts vars (depth - 1) 2 >>= fun else_body ->
             return
               (Ast.stmt
                  (Ast.If
                     ( cond,
                       Ast.stmt (Ast.Block then_body),
                       Some (Ast.stmt (Ast.Block else_body)) ))));
            (* bounded counted loop with a fresh counter *)
            (int_range 1 5 >>= fun iterations ->
             incr loop_counter;
             let counter = Printf.sprintf "i%d" !loop_counter in
             stmts (counter :: vars) (depth - 1) 2 >>= fun body ->
             return
               (Ast.stmt
                  (Ast.For
                     ( Some
                         (Ast.stmt
                            (Ast.Decl (counter, Ast.Tint, Some (Ast.int_lit 0)))),
                       Some
                         (Ast.expr
                            (Ast.Binop
                               ( Ast.Lt,
                                 Ast.var counter,
                                 Ast.int_lit iterations ))),
                       Some
                         (Ast.stmt
                            (Ast.Assign
                               ( Ast.Lvar counter,
                                 Ast.expr
                                   (Ast.Binop
                                      ( Ast.Add,
                                        Ast.var counter,
                                        Ast.int_lit 1 )) ))),
                       Ast.stmt (Ast.Block body) ))));
          ])
  in
  fun vars depth n -> stmts vars depth n

let gen_program =
  let open QCheck.Gen in
  gen_stmts ~with_call:false [ "p" ] 1 3 >>= fun helper_body ->
  gen_expr [ "p"; "g0"; "g1" ] >>= fun helper_ret ->
  gen_stmts ~with_call:true globals 2 5 >>= fun main_body ->
  gen_expr globals >>= fun main_ret ->
  let helper =
    {
      Ast.f_name = "helper";
      f_ret = Ast.Tint;
      f_params = [ ("p", Ast.Tint) ];
      f_body = helper_body @ [ Ast.stmt (Ast.Return (Some helper_ret)) ];
      f_pos = Ast.dummy_pos;
    }
  in
  let main =
    {
      Ast.f_name = "main";
      f_ret = Ast.Tint;
      f_params = [];
      f_body = main_body @ [ Ast.stmt (Ast.Return (Some main_ret)) ];
      f_pos = Ast.dummy_pos;
    }
  in
  let program =
    {
      Ast.globals =
        List.map
          (fun name ->
            {
              Ast.g_name = name;
              g_type = Ast.Tint;
              g_const = false;
              g_init = None;
              g_pos = Ast.dummy_pos;
            })
          globals;
      funcs = [ helper; main ];
    }
  in
  return program

let arbitrary_program =
  QCheck.make ~print:Pretty.program_to_string gen_program

(* ---- the differential oracle ------------------------------------------- *)

let run_interp info =
  let env = Minic.Interp.create info in
  match
    Minic.Interp.run ~fuel:1_000_000 env
      (Minic.Interp.default_hooks ())
      ~entry:"main"
  with
  | Minic.Interp.Finished (Some v) ->
    Some (v, List.map (fun g -> Minic.Interp.read_global env g) globals)
  | _ -> None

let run_cpu info =
  let compiled = Mcc.Codegen.compile ~fname_tracking:false info in
  let bus = Cpu.Bus.create () in
  let ram = Cpu.Ram.create ~name:"ram" ~base:0 ~size:0x8000 in
  Cpu.Bus.attach bus (Cpu.Ram.device ram);
  Cpu.Ram.load ram 0 compiled.Mcc.Codegen.words;
  let core =
    Cpu.Cpu_core.create bus ~start_pc:0
      ~stack_pointer:Cpu.Memory_map.stack_top ()
  in
  match Cpu.Cpu_core.run ~max_instructions:10_000_000 core with
  | Cpu.Cpu_core.Halted ->
    Some
      ( Cpu.Cpu_core.reg core Cpu.Isa.reg_rv,
        List.map
          (fun g ->
            Cpu.Ram.get ram (Mcc.Symtab.address_of compiled.Mcc.Codegen.symtab g))
          globals )
  | _ -> None

let qcheck_compiled_equals_interpreted =
  QCheck.Test.make ~name:"compiled == interpreted (random programs)"
    ~count:300 arbitrary_program (fun program ->
      match Loc.catch (fun () -> Minic.Typecheck.check program) with
      | Error e -> QCheck.Test.fail_reportf "generator bug: %s" (Loc.to_string e)
      | Ok info -> (
        match run_interp info, run_cpu info with
        | Some (rv1, gs1), Some (rv2, gs2) -> rv1 = rv2 && gs1 = gs2
        | None, None -> true
        | Some _, None -> QCheck.Test.fail_report "cpu failed, interp ok"
        | None, Some _ -> QCheck.Test.fail_report "interp failed, cpu ok"))

(* the generated programs must also survive the pretty-print/parse loop *)
let qcheck_program_roundtrip =
  QCheck.Test.make ~name:"pretty . parse round trip (random programs)"
    ~count:150 arbitrary_program (fun program ->
      let printed = Pretty.program_to_string program in
      match Loc.catch (fun () -> Minic.C_parser.parse printed) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" (Loc.to_string e)
      | Ok reparsed ->
        String.equal printed (Pretty.program_to_string reparsed))

(* and the normalization pass must preserve their behaviour *)
let qcheck_normalize_preserves =
  QCheck.Test.make ~name:"normalize preserves behaviour (random programs)"
    ~count:150 arbitrary_program (fun program ->
      match Loc.catch (fun () -> Minic.Typecheck.check program) with
      | Error _ -> false
      | Ok info -> (
        let normalized = Absref.Normalize.program info in
        match run_interp info, run_interp normalized with
        | Some a, Some b -> a = b
        | None, None -> true
        | _ -> false))

(* ---- full-pipeline differential: approach 1 vs approach 2 -------------- *)

(* The same generated program, monitored for the same generated response
   property `G (p -> F[k] q)`, must reach the same strongly-finalized
   verdict whether the checker is clock-triggered on the SoC (approach 1)
   or statement-triggered on the derived model (approach 2). Globals only
   change at statement-granularity stores, so the two time scales visit
   the same sequence of global-state snapshots (with different dwell
   times); with the F bound scaled to exceed the whole trace on each time
   scale, the property is stutter-invariant and the verdicts must agree. *)

module Session = Verif.Session

(* bounds scaled per time scale: generated programs execute well under
   10k statements (loops are counted, depth-bounded), and a statement
   costs well under 200 SoC cycles *)
let k_statements = 50_000
let k_cycles = 200 * k_statements
let budget_statements = 200_000
let budget_cycles = 5_000_000

let gen_prop =
  let open QCheck.Gen in
  oneofl globals >>= fun v ->
  oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] >>= fun op ->
  int_range (-64) 64 >>= fun c -> return (Printf.sprintf "%s %s %d" v op c)

(* shrink by dropping top-level statements of either function body,
   always preserving the trailing Return *)
let shrink_program program yield =
  List.iteri
    (fun fidx f ->
      match List.rev f.Ast.f_body with
      | ret :: rev_body ->
        QCheck.Shrink.list_spine (List.rev rev_body) (fun body ->
            let f = { f with Ast.f_body = body @ [ ret ] } in
            yield
              {
                program with
                Ast.funcs =
                  List.mapi
                    (fun i g -> if i = fidx then f else g)
                    program.Ast.funcs;
              })
      | [] -> ())
    program.Ast.funcs

let arbitrary_monitored_program =
  QCheck.make
    ~print:(fun (program, p, q) ->
      Printf.sprintf "p := %s\nq := %s\n%s" p q
        (Pretty.program_to_string program))
    ~shrink:(fun (program, p, q) yield ->
      shrink_program program (fun program -> yield (program, p, q)))
    QCheck.Gen.(triple gen_program gen_prop gen_prop)

let interp_finishes info =
  let env = Minic.Interp.create info in
  match
    Minic.Interp.run ~fuel:10_000 env
      (Minic.Interp.default_hooks ())
      ~entry:"main"
  with
  | Minic.Interp.Finished _ -> true
  | _ -> false

(* run one approach to completion and strongly finalize; None when the
   software did not halt in budget or crashed (case is then discarded) *)
let final_verdict ~backend ~bound ~k info (p, q) =
  let config =
    {
      Session.default_config with
      Session.session_name =
        (match backend with
        | Session.Soc_model -> "fuzz-approach1"
        | _ -> "fuzz-approach2");
      propositions = [ ("fp", p); ("fq", q) ];
      properties = [ ("resp", Printf.sprintf "G (fp -> F[%d] fq)" k) ];
      bound = Some bound;
    }
  in
  let session = Session.create ~info config backend in
  Session.boot session;
  Session.run session;
  if Session.alive session || Session.crashed session <> None then None
  else
    match Sctc.Checker.finalize ~strong:true (Session.checker session) with
    | [ (_, v) ] -> Some v
    | _ -> None

let qcheck_approach1_equals_approach2 =
  QCheck.Test.make
    ~name:"approach 1 == approach 2 verdict of G (p -> F[k] q)" ~count:100
    arbitrary_monitored_program (fun (program, p, q) ->
      match Loc.catch (fun () -> Minic.Typecheck.check program) with
      | Error e -> QCheck.Test.fail_reportf "generator bug: %s" (Loc.to_string e)
      | Ok info ->
        if not (interp_finishes info) then true
        else (
          match
            ( final_verdict ~backend:Session.Soc_model ~bound:budget_cycles
                ~k:k_cycles info (p, q),
              final_verdict ~backend:Session.Derived_model
                ~bound:budget_statements ~k:k_statements info (p, q) )
          with
          | Some v1, Some v2 ->
            Verdict.equal v1 v2
            || QCheck.Test.fail_reportf "approach 1: %s, approach 2: %s"
                 (Verdict.to_string v1) (Verdict.to_string v2)
          | _ -> true))

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_compiled_equals_interpreted;
          QCheck_alcotest.to_alcotest qcheck_program_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_normalize_preserves;
          QCheck_alcotest.to_alcotest qcheck_approach1_equals_approach2;
        ] );
    ]
