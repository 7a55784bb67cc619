module Ast = Minic.Ast

exception Instrument_error of string

let mon_step_call = Ast.stmt (Ast.Expr (Ast.expr (Ast.Call ("__mon_step", []))))

(* insert a monitor call after every statement; statements that transfer
   control (return/break/continue/halt) need no trailing call *)
let rec instrument_stmt (s : Ast.stmt) =
  let wrap body = Ast.stmt ~pos:body.Ast.spos (Ast.Block (instrument_list [ body ])) in
  let sdesc =
    match s.Ast.sdesc with
    | Ast.Block body -> Ast.Block (instrument_list body)
    | Ast.If (c, then_s, else_s) ->
      Ast.If (c, wrap then_s, Option.map wrap else_s)
    | Ast.While (c, body) -> Ast.While (c, wrap body)
    | Ast.Do_while (body, c) -> Ast.Do_while (wrap body, c)
    | Ast.For (init, c, step, body) -> Ast.For (init, c, step, wrap body)
    | Ast.Switch (e, cases) ->
      Ast.Switch
        ( e,
          List.map
            (fun case -> { case with Ast.body = instrument_list case.Ast.body })
            cases )
    | other -> other
  in
  { s with Ast.sdesc }

and instrument_list stmts =
  List.concat_map
    (fun s ->
      let s' = instrument_stmt s in
      match s.Ast.sdesc with
      | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Halt -> [ s' ]
      | _ -> [ s'; mon_step_call ])
    stmts

let instrument ?(max_states = 20_000) ~property ~predicates info =
  (* check predicate coverage *)
  let support = Formula.props property in
  List.iter
    (fun prop ->
      if not (List.mem_assoc prop predicates) then
        raise (Instrument_error ("no predicate given for proposition " ^ prop)))
    support;
  let automaton =
    match Ar_automaton.synthesize ~max_states property with
    | automaton -> automaton
    | exception Ar_automaton.Too_large n ->
      raise
        (Instrument_error
           (Printf.sprintf "AR-automaton synthesis blew up (%d states)" n))
  in
  let props = Ar_automaton.props automaton in
  let num_props = Array.length props in
  let num_states = Ar_automaton.num_states automaton in
  (* the monitor function:
       int m = sum of bit(i) for satisfied propositions;
       switch (__mon_state) { per state: switch (m) -> successor }
       assert(!reject(__mon_state)); *)
  let parse_pred name =
    Minic.C_parser.parse_expr (List.assoc name predicates)
  in
  let bit_accum =
    Array.to_list props
    |> List.mapi (fun i name ->
           Ast.stmt
             (Ast.If
                ( parse_pred name,
                  Ast.stmt
                    (Ast.Assign
                       ( Ast.Lvar "__mon_bits",
                         Ast.expr
                           (Ast.Binop
                              ( Ast.Add,
                                Ast.var "__mon_bits",
                                Ast.int_lit (1 lsl i) )) )),
                  None )))
  in
  let state_case state =
    let masks = 1 lsl num_props in
    (* group masks by successor *)
    let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    for mask = 0 to masks - 1 do
      let target = Ar_automaton.next automaton state mask in
      match Hashtbl.find_opt groups target with
      | Some cell -> cell := mask :: !cell
      | None -> Hashtbl.replace groups target (ref [ mask ])
    done;
    let inner_cases =
      Hashtbl.fold
        (fun target masks acc ->
          if target = state then acc (* self loop: no update needed *)
          else
            {
              Ast.labels = List.map (fun m -> Ast.Case m) (List.rev !masks);
              body =
                [
                  Ast.stmt
                    (Ast.Assign (Ast.Lvar "__mon_state", Ast.int_lit target));
                  Ast.stmt Ast.Break;
                ];
            }
            :: acc)
        groups []
    in
    {
      Ast.labels = [ Ast.Case state ];
      body =
        (match inner_cases with
        | [] -> [ Ast.stmt Ast.Break ]
        | _ ->
          [
            Ast.stmt (Ast.Switch (Ast.var "__mon_bits", inner_cases));
            Ast.stmt Ast.Break;
          ]);
    }
  in
  let transition_cases =
    List.init num_states (fun state ->
        match Ar_automaton.kind automaton state with
        | Ar_automaton.Accept | Ar_automaton.Reject ->
          (* absorbing *)
          { Ast.labels = [ Ast.Case state ]; body = [ Ast.stmt Ast.Break ] }
        | Ar_automaton.Pend -> state_case state)
  in
  let reject_check =
    (* assert(__mon_state != r1 && ... ) *)
    let rejects =
      List.init num_states (fun s -> s)
      |> List.filter (fun s -> Ar_automaton.kind automaton s = Ar_automaton.Reject)
    in
    match rejects with
    | [] -> []
    | _ ->
      let condition =
        List.fold_left
          (fun acc s ->
            Ast.expr
              (Ast.Binop
                 ( Ast.Land,
                   acc,
                   Ast.expr
                     (Ast.Binop (Ast.Ne, Ast.var "__mon_state", Ast.int_lit s))
                 )))
          (Ast.expr (Ast.Bool_lit true))
          rejects
      in
      [ Ast.stmt (Ast.Assert condition) ]
  in
  let mon_step =
    {
      Ast.f_name = "__mon_step";
      f_ret = Ast.Tvoid;
      f_params = [];
      f_body =
        [ Ast.stmt (Ast.Assign (Ast.Lvar "__mon_bits", Ast.int_lit 0)) ]
        @ bit_accum
        @ [ Ast.stmt (Ast.Switch (Ast.var "__mon_state", transition_cases)) ]
        @ reject_check;
      f_pos = Ast.dummy_pos;
    }
  in
  let prog = Minic.Typecheck.program info in
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        let body = instrument_list f.Ast.f_body in
        let body =
          if String.equal f.Ast.f_name "main" then mon_step_call :: body
          else body
        in
        { f with Ast.f_body = body })
      prog.Ast.funcs
  in
  let globals =
    prog.Ast.globals
    @ [
        {
          Ast.g_name = "__mon_state";
          g_type = Ast.Tint;
          g_const = false;
          g_init = Some (Ast.int_lit (Ar_automaton.initial automaton));
          g_pos = Ast.dummy_pos;
        };
        {
          Ast.g_name = "__mon_bits";
          g_type = Ast.Tint;
          g_const = false;
          g_init = None;
          g_pos = Ast.dummy_pos;
        };
        {
          Ast.g_name = "__MON_STATES";
          g_type = Ast.Tint;
          g_const = true;
          g_init = Some (Ast.int_lit num_states);
          g_pos = Ast.dummy_pos;
        };
      ]
  in
  Minic.Typecheck.check { Ast.globals; funcs = funcs @ [ mon_step ] }

let monitor_state_count info = Minic.Typecheck.const_value info "__MON_STATES"
