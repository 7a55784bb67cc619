(* Differential testing of the bytecode VM against the reference
   interpreter, through the backend-agnostic [Minic.Exec] interface.

   The interpreter is the oracle: for every generated program, both
   backends must produce the same outcome (including exceptions, their
   messages and positions), the same statement count, the same final
   globals, and byte-identical observation traces (statement hooks,
   function entries, virtual-memory accesses, nondet queries). The
   generator is deliberately richer than test_fuzz's: arrays with
   out-of-bounds candidates, switch with fallthrough, while/do-while,
   break/continue, nondet, virtual memory, assert/assume/halt and
   unmasked division — the error paths are part of the contract. *)

module Ast = Minic.Ast
module Exec = Minic.Exec

(* ---- observation trace ------------------------------------------------- *)

let stmt_tag s =
  match s.Ast.sdesc with
  | Ast.Block _ -> "blk"
  | Ast.Decl _ -> "dcl"
  | Ast.Expr _ -> "exp"
  | Ast.Assign _ -> "asg"
  | Ast.If _ -> "if"
  | Ast.While _ -> "whl"
  | Ast.Do_while _ -> "dow"
  | Ast.For _ -> "for"
  | Ast.Switch _ -> "swt"
  | Ast.Break -> "brk"
  | Ast.Continue -> "cnt"
  | Ast.Return _ -> "ret"
  | Ast.Assert _ -> "ast"
  | Ast.Assume _ -> "asm"
  | Ast.Halt -> "hlt"

(* hooks that append every observation point to [buf]: statement ticks
   (tag + position), function entries, vmem traffic against a small
   deterministic memory, and nondet queries answered mid-range *)
let recording_hooks buf =
  let memory = Hashtbl.create 16 in
  {
    Minic.Interp.mem_read =
      (fun addr ->
        let v =
          match Hashtbl.find_opt memory addr with
          | Some v -> v
          | None -> (addr * 7) land 0xFF
        in
        Buffer.add_string buf (Printf.sprintf "R%d=%d;" addr v);
        v);
    mem_write =
      (fun addr v ->
        Buffer.add_string buf (Printf.sprintf "W%d=%d;" addr v);
        Hashtbl.replace memory addr v);
    nondet =
      (fun ~lo ~hi ->
        Buffer.add_string buf (Printf.sprintf "N%d,%d;" lo hi);
        lo + ((hi - lo) / 2));
    on_statement =
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "%s@%d:%d;" (stmt_tag s) s.Ast.spos.Ast.line
             s.Ast.spos.Ast.column));
    on_function_entry =
      (fun name -> Buffer.add_string buf (Printf.sprintf "F%s;" name));
  }

(* ---- one run on one backend, fully reified ----------------------------- *)

let outcome_repr = function
  | Exec.Finished (Some v) -> Printf.sprintf "finished %d" v
  | Exec.Finished None -> "finished void"
  | Exec.Halted -> "halted"
  | Exec.Fuel_exhausted -> "fuel exhausted"

let run_backend ?(fuel = 20_000) backend info =
  let exec = Exec.create ~backend info in
  let buf = Buffer.create 256 in
  let hooks = recording_hooks buf in
  let outcome =
    match Exec.run ~fuel ~hooks exec ~entry:"main" with
    | outcome -> outcome_repr outcome
    | exception Exec.Assertion_failed p ->
      Printf.sprintf "assert@%d:%d" p.Ast.line p.Ast.column
    | exception Exec.Assumption_failed p ->
      Printf.sprintf "assume@%d:%d" p.Ast.line p.Ast.column
    | exception Exec.Runtime_error (msg, p) ->
      Printf.sprintf "error %s@%d:%d" msg p.Ast.line p.Ast.column
  in
  Printf.sprintf "%s | stmts=%d | %s | %s" outcome
    (Exec.statements_executed exec)
    (String.concat ","
       (List.map
          (fun (n, v) -> Printf.sprintf "%s=%d" n v)
          (Exec.globals_snapshot exec)))
    (Buffer.contents buf)

(* ---- generator --------------------------------------------------------- *)

let globals = [ "g0"; "g1"; "g2" ]
let array_len = 8

let mask e = Ast.expr (Ast.Binop (Ast.Band, e, Ast.int_lit (array_len - 1)))

let nonzero e =
  Ast.expr
    (Ast.Binop
       ( Ast.Bor,
         Ast.expr (Ast.Binop (Ast.Band, e, Ast.int_lit 7)),
         Ast.int_lit 1 ))

(* expressions: the fuzz set plus array reads (mostly masked, sometimes
   raw — the raw ones probe the bounds-error path), nondet with a
   guaranteed-legal literal range (and rarely an arbitrary one, probing
   the empty-range error), vmem reads, and unmasked division (rarely),
   probing division-by-zero *)
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
        frequency
          [
            (2, map Ast.var (oneofl vars));
            (2, bin Ast.Add);
            (2, bin Ast.Sub);
            (2, bin Ast.Mul);
            ( 2,
              map2
                (fun a b -> Ast.expr (Ast.Binop (Ast.Div, a, nonzero b)))
                sub sub );
            ( 2,
              map2
                (fun a b -> Ast.expr (Ast.Binop (Ast.Mod, a, nonzero b)))
                sub sub );
            (1, bin Ast.Div);
            (1, bin Ast.Mod);
            (2, bin Ast.Band);
            (2, bin Ast.Bor);
            (2, bin Ast.Bxor);
            (2, bin Ast.Shl);
            (2, bin Ast.Shr);
            (2, bin Ast.Lt);
            (2, bin Ast.Le);
            (2, bin Ast.Gt);
            (2, bin Ast.Ge);
            (2, bin Ast.Eq);
            (2, bin Ast.Ne);
            (2, bin Ast.Land);
            (2, bin Ast.Lor);
            (2, map (fun a -> Ast.expr (Ast.Unop (Ast.Neg, a))) sub);
            (2, map (fun a -> Ast.expr (Ast.Unop (Ast.Bitnot, a))) sub);
            (2, map (fun a -> Ast.expr (Ast.Unop (Ast.Lognot, a))) sub);
            (2, map (fun e -> Ast.expr (Ast.Index ("arr", mask e))) sub);
            (1, map (fun e -> Ast.expr (Ast.Index ("arr", e))) sub);
            ( 2,
              map2
                (fun lo k ->
                  Ast.expr
                    (Ast.Nondet (Ast.int_lit lo, Ast.int_lit (lo + k))))
                (int_range (-50) 50) (int_range 0 20) );
            ( 1,
              map2 (fun a b -> Ast.expr (Ast.Nondet (a, b))) sub sub );
            (2, map (fun e -> Ast.expr (Ast.Mem_read e)) sub);
          ])

let gen_stmts =
  let open QCheck.Gen in
  let fresh_counter = ref 0 in
  let rec stmts vars depth n =
    if n <= 0 then return []
    else
      stmt vars depth >>= fun prefix ->
      stmts vars depth (n - 1) >>= fun rest -> return (prefix @ rest)
  and block vars depth n = stmts vars depth n >|= fun body -> [ Ast.stmt (Ast.Block body) ]
  and stmt vars depth =
    let assign_global =
      map2
        (fun target e -> [ Ast.stmt (Ast.Assign (Ast.Lvar target, e)) ])
        (oneofl globals) (gen_expr vars)
    in
    let assign_elem =
      map2
        (fun index e ->
          [ Ast.stmt (Ast.Assign (Ast.Lindex ("arr", mask index), e)) ])
        (gen_expr vars) (gen_expr vars)
    in
    let assign_elem_raw =
      map2
        (fun index e ->
          [ Ast.stmt (Ast.Assign (Ast.Lindex ("arr", index), e)) ])
        (gen_expr vars) (gen_expr vars)
    in
    let mem_write =
      map2
        (fun addr e -> [ Ast.stmt (Ast.Assign (Ast.Lmem addr, e)) ])
        (gen_expr vars) (gen_expr vars)
    in
    let call_stmt =
      map
        (fun e ->
          [ Ast.stmt (Ast.Expr (Ast.expr (Ast.Call ("helper", [ e ])))) ])
        (gen_expr vars)
    in
    let void_call =
      map
        (fun e -> [ Ast.stmt (Ast.Expr (Ast.expr (Ast.Call ("vfn", [ e ])))) ])
        (gen_expr vars)
    in
    let call_assign =
      map
        (fun e ->
          [
            Ast.stmt
              (Ast.Assign
                 (Ast.Lvar "g0", Ast.expr (Ast.Call ("helper", [ e ]))));
          ])
        (gen_expr vars)
    in
    let assert_stmt =
      (* usually trivially true, sometimes arbitrary — the arbitrary
         ones probe assertion-failure parity (message + position) *)
      frequency
        [
          ( 3,
            map
              (fun e ->
                [
                  Ast.stmt
                    (Ast.Assert (Ast.expr (Ast.Binop (Ast.Ge, nonzero e, Ast.int_lit (-1000000)))));
                ])
              (gen_expr vars) );
          (1, map (fun e -> [ Ast.stmt (Ast.Assert e) ]) (gen_expr vars));
        ]
    in
    let assume_stmt = map (fun e -> [ Ast.stmt (Ast.Assume e) ]) (gen_expr vars) in
    let halt_stmt =
      map
        (fun e -> [ Ast.stmt (Ast.If (e, Ast.stmt Ast.Halt, None)) ])
        (gen_expr vars)
    in
    let base =
      [
        (6, assign_global); (3, assign_elem); (1, assign_elem_raw);
        (2, mem_write); (2, call_stmt); (2, call_assign); (2, void_call);
        (1, assert_stmt); (1, assume_stmt); (1, halt_stmt);
      ]
    in
    if depth <= 0 then frequency base
    else
      let nested =
        [
          (* if / else over block-wrapped branches *)
          ( 3,
            gen_expr vars >>= fun cond ->
            block vars (depth - 1) 2 >>= fun then_body ->
            block vars (depth - 1) 2 >>= fun else_body ->
            return
              [
                Ast.stmt
                  (Ast.If
                     ( cond,
                       List.hd then_body,
                       Some (List.hd else_body) ));
              ] );
          (* counted while: the increment comes first, so a generated
             break can only shorten the loop, never unbound it *)
          ( 2,
            int_range 1 6 >>= fun limit ->
            incr fresh_counter;
            let c = Printf.sprintf "w%d" !fresh_counter in
            stmts (c :: vars) (depth - 1) 2 >>= fun body ->
            gen_expr (c :: vars) >>= fun break_cond ->
            let incr_c =
              Ast.stmt
                (Ast.Assign
                   ( Ast.Lvar c,
                     Ast.expr (Ast.Binop (Ast.Add, Ast.var c, Ast.int_lit 1))
                   ))
            in
            let maybe_break =
              Ast.stmt (Ast.If (break_cond, Ast.stmt Ast.Break, None))
            in
            return
              [
                Ast.stmt (Ast.Decl (c, Ast.Tint, Some (Ast.int_lit 0)));
                Ast.stmt
                  (Ast.While
                     ( Ast.expr (Ast.Binop (Ast.Lt, Ast.var c, Ast.int_lit limit)),
                       Ast.stmt (Ast.Block ((incr_c :: body) @ [ maybe_break ]))
                     ));
              ] );
          (* counted do-while, increment first for the same reason *)
          ( 2,
            int_range 1 6 >>= fun limit ->
            incr fresh_counter;
            let c = Printf.sprintf "d%d" !fresh_counter in
            stmts (c :: vars) (depth - 1) 2 >>= fun body ->
            let incr_c =
              Ast.stmt
                (Ast.Assign
                   ( Ast.Lvar c,
                     Ast.expr (Ast.Binop (Ast.Add, Ast.var c, Ast.int_lit 1))
                   ))
            in
            return
              [
                Ast.stmt (Ast.Decl (c, Ast.Tint, Some (Ast.int_lit 0)));
                Ast.stmt
                  (Ast.Do_while
                     ( Ast.stmt (Ast.Block (incr_c :: body)),
                       Ast.expr (Ast.Binop (Ast.Lt, Ast.var c, Ast.int_lit limit))
                     ));
              ] );
          (* for loop; continue jumps to the step, so it stays counted *)
          ( 2,
            int_range 1 6 >>= fun limit ->
            incr fresh_counter;
            let c = Printf.sprintf "i%d" !fresh_counter in
            stmts (c :: vars) (depth - 1) 2 >>= fun body ->
            gen_expr (c :: vars) >>= fun skip_cond ->
            let maybe_continue =
              Ast.stmt (Ast.If (skip_cond, Ast.stmt Ast.Continue, None))
            in
            return
              [
                Ast.stmt
                  (Ast.For
                     ( Some
                         (Ast.stmt
                            (Ast.Decl (c, Ast.Tint, Some (Ast.int_lit 0)))),
                       Some
                         (Ast.expr
                            (Ast.Binop (Ast.Lt, Ast.var c, Ast.int_lit limit))),
                       Some
                         (Ast.stmt
                            (Ast.Assign
                               ( Ast.Lvar c,
                                 Ast.expr
                                   (Ast.Binop
                                      (Ast.Add, Ast.var c, Ast.int_lit 1)) ))),
                       Ast.stmt (Ast.Block (maybe_continue :: body)) ));
              ] );
          (* switch over a masked scrutinee: fallthrough between cases,
             break in some, optional default *)
          ( 2,
            gen_expr vars >>= fun scrutinee ->
            stmts vars (depth - 1) 1 >>= fun body0 ->
            stmts vars (depth - 1) 1 >>= fun body1 ->
            stmts vars (depth - 1) 1 >>= fun body2 ->
            bool >>= fun with_default ->
            bool >>= fun break1 ->
            let case labels body brk =
              {
                Ast.labels;
                body = (if brk then body @ [ Ast.stmt Ast.Break ] else body);
              }
            in
            let cases =
              [
                case [ Ast.Case 0 ] body0 false;
                case [ Ast.Case 1; Ast.Case 3 ] body1 break1;
              ]
              @
              if with_default then [ case [ Ast.Default ] body2 true ]
              else [ case [ Ast.Case 2 ] body2 false ]
            in
            return [ Ast.stmt (Ast.Switch (mask scrutinee, cases)) ] );
        ]
      in
      frequency (base @ nested)
  in
  fun vars depth n -> stmts vars depth n

(* constant global initializers over the earlier scalar globals
   [earlier]: divisors are forced nonzero, except under a literal guard
   that short-circuiting skips *)
let gen_init earlier =
  let open QCheck.Gen in
  let literal = map Ast.int_lit (int_range (-100) 100) in
  let leaf =
    if earlier = [] then literal
    else oneof [ literal; map Ast.var (oneofl earlier) ]
  in
  let zero_div op a = Ast.expr (Ast.Binop (op, a, Ast.int_lit 0)) in
  sized_size (int_bound 4) @@ fix (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        let bin op =
          map2 (fun a b -> Ast.expr (Ast.Binop (op, a, b))) sub sub
        in
        frequency
          [
            (2, leaf);
            (2, bin Ast.Add); (1, bin Ast.Sub); (1, bin Ast.Mul);
            (1, bin Ast.Shl); (1, bin Ast.Shr); (1, bin Ast.Bxor);
            (1, bin Ast.Lt); (1, bin Ast.Eq);
            (1, bin Ast.Land); (1, bin Ast.Lor);
            ( 1,
              map2
                (fun a b -> Ast.expr (Ast.Binop (Ast.Div, a, nonzero b)))
                sub sub );
            ( 1,
              map2
                (fun a b -> Ast.expr (Ast.Binop (Ast.Mod, a, nonzero b)))
                sub sub );
            (1, map (fun a -> Ast.expr (Ast.Unop (Ast.Neg, a))) sub);
            (1, map (fun a -> Ast.expr (Ast.Unop (Ast.Lognot, a))) sub);
            ( 1,
              map
                (fun a ->
                  Ast.expr
                    (Ast.Binop (Ast.Land, Ast.int_lit 0, zero_div Ast.Div a)))
                sub );
            ( 1,
              map
                (fun a ->
                  Ast.expr
                    (Ast.Binop (Ast.Lor, Ast.int_lit 1, zero_div Ast.Mod a)))
                sub );
          ])

(* the global layout: an array, two scalars, a const, a third scalar;
   each scalar initializer reads only earlier scalars *)
let gen_globals =
  let open QCheck.Gen in
  let global ?(typ = Ast.Tint) ?(const = false) ?init name =
    { Ast.g_name = name; g_type = typ; g_const = const; g_init = init;
      g_pos = Ast.dummy_pos }
  in
  let init earlier = opt (gen_init earlier) in
  init [] >>= fun i0 ->
  init [ "g0" ] >>= fun i1 ->
  gen_init [ "g0"; "g1" ] >>= fun ik ->
  init [ "g0"; "g1"; "k" ] >>= fun i2 ->
  return
    [
      global ~typ:(Ast.Tarray array_len) "arr";
      global ?init:i0 "g0";
      global ?init:i1 "g1";
      global ~const:true ~init:ik "k";
      global ?init:i2 "g2";
    ]

let gen_program =
  let open QCheck.Gen in
  gen_globals >>= fun globals_decl ->
  gen_stmts [ "p" ] 1 3 >>= fun helper_body ->
  gen_expr [ "p"; "g0"; "g1" ] >>= fun helper_ret ->
  gen_stmts [ "q" ] 1 2 >>= fun vfn_body ->
  gen_stmts ("k" :: globals) 2 5 >>= fun main_body ->
  gen_expr globals >>= fun main_ret ->
  let func name ret params body =
    { Ast.f_name = name; f_ret = ret; f_params = params; f_body = body;
      f_pos = Ast.dummy_pos }
  in
  return
    {
      Ast.globals = globals_decl;
      funcs =
        [
          func "vfn" Ast.Tvoid [ ("q", Ast.Tint) ]
            (vfn_body @ [ Ast.stmt (Ast.Return None) ]);
          func "helper" Ast.Tint [ ("p", Ast.Tint) ]
            (helper_body @ [ Ast.stmt (Ast.Return (Some helper_ret)) ]);
          func "main" Ast.Tint []
            (main_body @ [ Ast.stmt (Ast.Return (Some main_ret)) ]);
        ];
    }

let arbitrary_program =
  QCheck.make ~print:Minic.Pretty.program_to_string gen_program

let vm_matches_interp info =
  let a = run_backend Exec.Interp info and b = run_backend Exec.Vm info in
  String.equal a b || QCheck.Test.fail_reportf "interp: %s\nvm:     %s" a b

let qcheck_vm_equals_interp =
  QCheck.Test.make ~name:"vm == interp (random programs)" ~count:1000
    arbitrary_program (fun program ->
      match Loc.catch (fun () -> Minic.Typecheck.check program) with
      | Error e -> QCheck.Test.fail_reportf "generator bug: %s" (Loc.to_string e)
      | Ok info -> vm_matches_interp info)

(* ---- typecheck / compile oracle ---------------------------------------- *)

(* The one node a planted shape makes illegal carries this position;
   every other node of a generated program sits at [Ast.dummy_pos]. *)
let planted_pos = { Ast.line = 9999; column = 7 }

(* Plant one shape into a generated program. The rejected ones are the
   three scoping and initializer rules of [Typecheck]: a declaration as
   an un-braced branch or loop body or as a for step, a reference from
   one switch case to a local declared directly in a sibling case, and an
   array name or live zero divisor in a global initializer. The accepted
   ones sit next to them: braced declaration bodies, references from the
   declaring case (inside nested blocks and an inner switch), and
   nothing at all. Returns the program and the position [Typecheck] must
   report, [None] when it must accept. *)
let gen_planted =
  let open QCheck.Gen in
  let fresh = ref 0 in
  let name prefix =
    incr fresh;
    Printf.sprintf "%s%d" prefix !fresh
  in
  let e = gen_expr globals in
  let decl ?pos name init = Ast.stmt ?pos (Ast.Decl (name, Ast.Tint, init)) in
  let block body = Ast.stmt (Ast.Block body) in
  let assign target value = Ast.stmt (Ast.Assign (Ast.Lvar target, value)) in
  let plus a b = Ast.expr (Ast.Binop (Ast.Add, a, b)) in
  let switch scrutinee cases =
    Ast.stmt
      (Ast.Switch
         ( mask scrutinee,
           List.map (fun (labels, body) -> { Ast.labels; body }) cases ))
  in
  (* rejected: a declaration that is not an element of a sequence *)
  let unbraced =
    e >>= fun init ->
    e >>= fun cond ->
    let decl = decl ~pos:planted_pos (name "z") (Some init) in
    oneofl
      [
        Ast.If (cond, decl, None);
        Ast.If (cond, block [], Some decl);
        Ast.While (cond, decl);
        Ast.Do_while (decl, cond);
        Ast.For (None, Some cond, None, decl);
        Ast.For (None, Some cond, Some decl, block []);
      ]
    >|= fun s -> ([ Ast.stmt s ], Some planted_pos)
  in
  (* rejected: case 1 names the local case 0 declares, read or written,
     perhaps from inside a nested block *)
  let sibling =
    let local = name "s" in
    e >>= fun scrutinee ->
    e >>= fun value ->
    gen_stmts globals 0 1 >>= fun body ->
    oneofl
      [
        assign "g0" (plus (Ast.expr ~pos:planted_pos (Ast.Var local)) value);
        Ast.stmt ~pos:planted_pos (Ast.Assign (Ast.Lvar local, value));
      ]
    >>= fun reference ->
    oneofl
      [
        [ reference ];
        [ block [ reference ] ];
        [ Ast.stmt (Ast.If (value, block [ reference ], None)) ];
      ]
    >|= fun later ->
    ( [
        switch scrutinee
          [
            ( [ Ast.Case 0 ],
              (decl local (Some value) :: body) @ [ Ast.stmt Ast.Break ] );
            ([ Ast.Case 1; Ast.Default ], later);
          ];
      ],
      Some planted_pos )
  in
  (* accepted: the declaring case uses the local, in a nested block and
     from an inner switch; a sibling case declares its own *)
  let same_case =
    let local = name "s" in
    e >>= fun scrutinee ->
    e >>= fun init ->
    e >|= fun inner ->
    let use = Ast.var local in
    ( [
        switch scrutinee
          [
            ( [ Ast.Case 0 ],
              [
                decl local (Some init);
                block [ assign "g1" use ];
                switch inner
                  [
                    ([ Ast.Case 0 ], [ assign "g0" use; Ast.stmt Ast.Break ]);
                    ( [ Ast.Default ],
                      [ assign local (plus use (Ast.int_lit 1)) ] );
                  ];
                assign "g2" use;
                Ast.stmt Ast.Break;
              ] );
            ([ Ast.Case 1 ], [ decl (name "s") None ]);
          ];
      ],
      None )
  in
  (* accepted: declarations braced into branch and loop bodies *)
  let braced =
    let local = name "z" in
    e >>= fun cond ->
    e >>= fun init ->
    let body = block [ decl local (Some init); assign "g0" (Ast.var local) ] in
    oneofl
      [
        Ast.If (cond, body, Some body);
        Ast.For (None, Some (Ast.expr (Ast.Bool_lit false)), None, body);
        Ast.Do_while (body, Ast.expr (Ast.Bool_lit false));
      ]
    >|= fun s -> ([ Ast.stmt s ], None)
  in
  (* rejected: an array name (even where short-circuiting skips it) or a
     zero divisor evaluation reaches, in the initializer of g1 *)
  let bad_init =
    gen_init [ "g0" ] >>= fun a ->
    let arr = Ast.expr ~pos:planted_pos (Ast.Var "arr") in
    let zero = Ast.expr (Ast.Binop (Ast.Sub, Ast.var "g0", Ast.var "g0")) in
    oneofl
      [
        plus a arr;
        Ast.expr (Ast.Binop (Ast.Land, Ast.int_lit 0, arr));
        Ast.expr ~pos:planted_pos (Ast.Binop (Ast.Div, a, Ast.int_lit 0));
        Ast.expr
          (Ast.Binop
             ( Ast.Land,
               Ast.int_lit 1,
               Ast.expr ~pos:planted_pos (Ast.Binop (Ast.Mod, a, zero)) ));
      ]
  in
  let in_main shape =
    shape >|= fun (stmts, planted) -> (stmts, None, planted)
  in
  gen_program >>= fun program ->
  frequency
    [
      (3, return ([], None, None));
      (2, in_main unbraced); (2, in_main sibling); (2, in_main same_case);
      (2, in_main braced);
      (2, bad_init >|= fun init -> ([], Some init, Some planted_pos));
    ]
  >>= fun (stmts, g1_init, planted) ->
  let main = List.find (fun f -> f.Ast.f_name = "main") program.Ast.funcs in
  int_bound (List.length main.Ast.f_body - 1) >|= fun index ->
  let body = main.Ast.f_body in
  let f_body =
    List.filteri (fun i _ -> i < index) body
    @ stmts
    @ List.filteri (fun i _ -> i >= index) body
  in
  ( {
      Ast.globals =
        List.map
          (fun g ->
            if g.Ast.g_name = "g1" && g1_init <> None then
              { g with Ast.g_init = g1_init }
            else g)
          program.Ast.globals;
      funcs =
        List.map
          (fun f -> if f.Ast.f_name = "main" then { f with Ast.f_body } else f)
          program.Ast.funcs;
    },
    planted )

let qcheck_typecheck_compile =
  QCheck.Test.make ~name:"typecheck rejects planted shapes, vm == interp"
    ~count:1000
    (QCheck.make
       ~print:(fun (program, planted) ->
         Printf.sprintf "planted: %s\n%s"
           (match planted with Some _ -> "rejected" | None -> "accepted")
           (Minic.Pretty.program_to_string program))
       gen_planted)
    (fun (program, planted) ->
      match Minic.Typecheck.check program, planted with
      | exception Loc.Error { pos; message } ->
        planted = Some pos
        || QCheck.Test.fail_reportf "rejected at %d:%d: %s" pos.Ast.line
             pos.Ast.column message
      | _, Some _ -> QCheck.Test.fail_reportf "planted shape accepted"
      | info, None -> vm_matches_interp info)

(* ---- EEE operation-mix differential ------------------------------------ *)

(* the same booted approach-2 session, the same constrained-random
   campaign — only the execution backend differs; verdicts, time units,
   trigger counts and coverage must agree *)
let eee_outcome backend ~op ~seed ~cases =
  let session =
    Eee.Harness.approach2
      ~flash:(Eee.Harness.flash_quick_config ~fault_rate:0.02)
      ~seed ~backend ()
  in
  Eee.Driver.install_spec session [ op ];
  let config = { Eee.Driver.default_config with test_cases = cases; seed } in
  let result = Eee.Driver.run_campaign session config op in
  Printf.sprintf "units=%d triggers=%d cases=%d timeouts=%d %s returns=%s"
    result.Verif.Result.time_units result.Verif.Result.triggers
    (Verif.Result.completed_cases result)
    result.Verif.Result.timeouts
    (String.concat ","
       (List.map
          (fun p ->
            Printf.sprintf "%s:%s%s" p.Verif.Result.property
              (Verdict.to_string p.Verif.Result.verdict)
              (match p.Verif.Result.first_final_at with
              | Some tu -> Printf.sprintf "@%d" tu
              | None -> ""))
          result.Verif.Result.properties))
    (String.concat ","
       (match result.Verif.Result.coverage with
       | Some coverage -> Sctc.Coverage.observed coverage
       | None -> []))

let arbitrary_eee_mix =
  QCheck.make
    ~print:(fun (op, seed, cases) ->
      Printf.sprintf "%s seed=%d cases=%d" (Eee.Eee_spec.op_name op) seed cases)
    QCheck.Gen.(
      triple (oneofl Eee.Eee_spec.all_ops) (int_bound 10_000) (int_range 1 3))

let qcheck_eee_mix =
  QCheck.Test.make ~name:"EEE campaign: vm == interp (operation mixes)"
    ~count:25 arbitrary_eee_mix (fun (op, seed, cases) ->
      let interp = eee_outcome Exec.Interp ~op ~seed ~cases in
      let vm = eee_outcome Exec.Vm ~op ~seed ~cases in
      String.equal interp vm
      || QCheck.Test.fail_reportf "interp: %s\nvm:     %s" interp vm)

(* ---- observation-opcode unit tests ------------------------------------- *)

let parse_info source = Minic.Typecheck.check (Minic.C_parser.parse source)

let contains s fragment =
  let n = String.length s and m = String.length fragment in
  let rec scan i =
    if i + m > n then false
    else if String.sub s i m = fragment then true
    else scan (i + 1)
  in
  m = 0 || scan 0

let check_run name ?fuel source ~expect_contains =
  let info = parse_info source in
  let interp = run_backend ?fuel Exec.Interp info in
  let vm = run_backend ?fuel Exec.Vm info in
  Alcotest.(check string) (name ^ ": vm == interp") interp vm;
  List.iter
    (fun fragment ->
      if not (contains vm fragment) then
        Alcotest.failf "%s: %S not found in %S" name fragment vm)
    expect_contains

(* Tick: the statement hook fires before each statement executes, in
   program order, with the statement's own source position — observable
   as the globals trailing the tick stream by one statement *)
let test_tick_opcode () =
  let info =
    parse_info "int g;\nint main(void) {\n  g = 1;\n  g = 2;\n  halt();\n}\n"
  in
  let observe backend =
    let exec = Exec.create ~backend info in
    let seen = ref [] in
    Exec.set_hooks exec
      {
        (Exec.default_hooks ()) with
        Minic.Interp.on_statement =
          (fun s ->
            seen :=
              (stmt_tag s, s.Ast.spos.Ast.line, Exec.read_global exec "g")
              :: !seen);
      };
    let outcome = Exec.run ~fuel:100 exec ~entry:"main" in
    (outcome_repr outcome, List.rev !seen, Exec.statements_executed exec)
  in
  let interp = observe Exec.Interp and vm = observe Exec.Vm in
  let expected =
    ("halted", [ ("asg", 3, 0); ("asg", 4, 1); ("hlt", 5, 2) ], 3)
  in
  Alcotest.(check bool) "interp tick stream" true (interp = expected);
  Alcotest.(check bool) "vm tick stream" true (vm = expected)

(* Obs_entry: function-entry hooks fire after argument binding, once per
   call, interleaved with the tick stream exactly as the interpreter's *)
let test_fentry_opcode () =
  check_run "fentry"
    "int g;\n\
     int helper(int p) { g = g + p; return g; }\n\
     int main(void) {\n\
    \  g = helper(3) + helper(4);\n\
    \  return g;\n\
     }\n"
    ~expect_contains:[ "Fmain;"; "Fhelper;"; "finished 10" ]

(* Obs_mem_read / Obs_mem_write: vmem traffic goes through the hooks in
   evaluation order with the value round-tripping through the testbench
   memory *)
let test_mem_opcodes () =
  check_run "mem"
    "int g;\n\
     int main(void) {\n\
    \  mem_write(5, 7);\n\
    \  g = mem_read(5) + mem_read(64);\n\
    \  return g;\n\
     }\n"
    ~expect_contains:[ "W5=7;"; "R5=7;"; "R64=192;"; "finished 199" ]

(* Nondet_op: the query reaches the hook with the evaluated bounds; an
   empty range is a runtime error at the expression's position *)
let test_nondet_opcode () =
  check_run "nondet" "int main(void) { return nondet(3, 9); }"
    ~expect_contains:[ "N3,9;"; "finished 6" ];
  check_run "nondet empty range"
    "int main(void) {\n  return nondet(5, 2);\n}\n"
    ~expect_contains:[ "error nondet with empty range [5, 2]@2:10" ]

(* error-path parity: message text and position must match the
   interpreter exactly for each runtime-error class *)
let test_error_parity () =
  check_run "division by zero"
    "int z;\nint main(void) {\n  return 1 / z;\n}\n"
    ~expect_contains:[ "error division by zero@3:12" ];
  check_run "index out of bounds (read)"
    "int arr[4];\nint main(void) {\n  return arr[9];\n}\n"
    ~expect_contains:[ "error index 9 out of bounds for arr[4]@3:10" ];
  check_run "index out of bounds (write)"
    "int arr[4];\nint main(void) {\n  arr[7] = 1;\n  return 0;\n}\n"
    ~expect_contains:[ "error index 7 out of bounds for arr[4]@3:3" ];
  check_run "assertion failure"
    "int main(void) {\n  assert(0);\n  return 1;\n}\n"
    ~expect_contains:[ "assert@2:3" ];
  check_run "assumption failure"
    "int main(void) {\n  assume(1 == 2);\n  return 1;\n}\n"
    ~expect_contains:[ "assume@2:3" ];
  check_run "fuel parity" ~fuel:500
    "int g;\nint main(void) {\n  while (1) { g = g + 1; }\n  return g;\n}\n"
    ~expect_contains:[ "fuel exhausted | stmts=500" ]

(* control-flow corners that the compiler lowers specially: switch
   fallthrough/default dispatch, do-while, short-circuit operators *)
let test_lowering_corners () =
  check_run "switch fallthrough"
    "int g;\n\
     int main(void) {\n\
    \  switch (g + 2) {\n\
    \    case 0: g = 10; break;\n\
    \    case 2: g = 20;\n\
    \    default: g = g + 1; break;\n\
    \    case 5: g = 50; break;\n\
    \  }\n\
    \  return g;\n\
     }\n"
    ~expect_contains:[ "finished 21" ];
  check_run "do-while"
    "int g;\n\
     int main(void) {\n\
    \  do { g = g + 3; } while (g < 10);\n\
    \  return g;\n\
     }\n"
    ~expect_contains:[ "finished 12" ];
  check_run "short-circuit"
    "int z; int g;\n\
     int main(void) {\n\
    \  g = (z != 0 && 1 / z > 0) || z == 0;\n\
    \  return g;\n\
     }\n"
    ~expect_contains:[ "finished 1" ];
  check_run "fall-off-end returns 0"
    "int g;\n\
     int helper(void) { g = 4; }\n\
     int main(void) { return helper(); }\n"
    ~expect_contains:[ "finished 0" ]

(* reset restores globals, arrays and the statement counter *)
let test_reset () =
  let info =
    parse_info
      "int g; int arr[4];\n\
       int main(void) { g = g + 1; arr[2] = arr[2] + 5; return g; }\n"
  in
  List.iter
    (fun backend ->
      let exec = Exec.create ~backend info in
      ignore (Exec.run ~fuel:100 exec ~entry:"main");
      ignore (Exec.run ~fuel:100 exec ~entry:"main");
      Exec.reset exec;
      (match Exec.run ~fuel:100 exec ~entry:"main" with
      | Exec.Finished (Some 1) -> ()
      | outcome ->
        Alcotest.failf "%s after reset: %s" (Exec.to_string backend)
          (outcome_repr outcome));
      Alcotest.(check int)
        (Exec.to_string backend ^ " element after reset")
        5
        (Exec.read_element exec "arr" 2))
    [ Exec.Interp; Exec.Vm ]

(* ---- one compiled program per checked program -------------------------- *)

let vm_program info = Atomic.get (Minic.Typecheck.vm_program info)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* the first VM session of an info compiles it; a second one allocates
   only its own VM, far below one compile of the same program (measured
   on this one domain) *)
let test_compiled_once () =
  let info =
    (Esw.C2sc.derive (Eee.Eee_program.info ())).Esw.C2sc.model_info
  in
  let compile = minor_words (fun () -> ignore (Minic.Compile.compile info)) in
  Alcotest.(check bool) "no program before the first create" true
    (Option.is_none (vm_program info));
  ignore (Exec.create info);
  let program = Option.get (vm_program info) in
  let second = minor_words (fun () -> ignore (Exec.create info)) in
  Alcotest.(check bool) "the second create keeps the first program" true
    (Option.get (vm_program info) == program);
  if second *. 10. > compile then
    Alcotest.failf
      "second create allocated %.0f minor words, one compile %.0f" second
      compile

(* four domains create and run VMs at once from one fresh info: whichever
   of them fills the program slot, every run agrees with the
   interpreter, so no VM writes into the shared program *)
let test_shared_program_across_domains () =
  let info =
    parse_info
      "int g; int arr[8];\n\
       int bump(int p) { arr[p & 7] = arr[p & 7] + p; return arr[p & 7]; }\n\
       int main(void) {\n\
      \  int i;\n\
      \  for (i = 0; i < 40; i = i + 1) { g = g + bump(i); }\n\
      \  return g;\n\
       }\n"
  in
  let expected = run_backend Exec.Interp info in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            List.init 25 (fun _ -> run_backend Exec.Vm info)))
  in
  Atomic.set go true;
  List.iteri
    (fun domain runs ->
      List.iter
        (Alcotest.(check string)
           (Printf.sprintf "domain %d: vm == interp" domain)
           expected)
        runs)
    (List.map Domain.join domains)

let () =
  Alcotest.run "vm"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_vm_equals_interp;
          QCheck_alcotest.to_alcotest qcheck_typecheck_compile;
          QCheck_alcotest.to_alcotest qcheck_eee_mix;
        ] );
      ( "opcodes",
        [
          Alcotest.test_case "tick" `Quick test_tick_opcode;
          Alcotest.test_case "fentry" `Quick test_fentry_opcode;
          Alcotest.test_case "mem read/write" `Quick test_mem_opcodes;
          Alcotest.test_case "nondet" `Quick test_nondet_opcode;
          Alcotest.test_case "error parity" `Quick test_error_parity;
          Alcotest.test_case "lowering corners" `Quick test_lowering_corners;
        ] );
      ( "exec",
        [
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "a second create does not recompile" `Quick
            test_compiled_once;
          Alcotest.test_case "four domains share one program" `Quick
            test_shared_program_across_domains;
        ] );
    ]
