(* tcheck — command-line front end to the temporal-checker toolbox.

   Subcommands:
     parse      parse + typecheck a MiniC file
     run        execute on the bytecode VM
     compile    compile to the RISC ISA (prints assembly)
     sim        execute on the cycle-level SoC
     automaton  synthesize a property into an AR-automaton (IL text)
     verify     simulation-based temporal verification (approach 1 or 2)
     bmc        bounded model checking
     absref     predicate-abstraction model checking
     eee        run a case-study verification campaign
     smc        statistical model checking over fault-injected campaigns
     metrics    validate a metrics snapshot written by --metrics *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Run a text front end; bad input is one positioned line and exit 2. *)
let front_end what f =
  match Loc.catch f with
  | Ok value -> value
  | Error error ->
    Printf.eprintf "%s: %s\n" what (Loc.to_string error);
    exit 2

let load path =
  let source =
    try read_file path
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let program =
    front_end (path ^ ": parse error") (fun () -> Minic.C_parser.parse source)
  in
  front_end (path ^ ": type error") (fun () -> Minic.Typecheck.check program)

(* [load] for the subcommands that execute or compile the program: every
   backend enters at [main] *)
let load_runnable path =
  let info = load path in
  match Minic.Ast.find_func (Minic.Typecheck.program info) "main" with
  | Some _ -> info
  | None ->
    Printf.eprintf "%s: program has no main function\n" path;
    exit 2

(* a plain string: [load] reports unreadable files itself with exit 2 *)
let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.c")

(* ------------------------------------------------------------------ *)

let cmd_parse =
  let action path =
    let info = load path in
    let prog = Minic.Typecheck.program info in
    Printf.printf "%s: OK (%d globals, %d functions)\n" path
      (List.length prog.Minic.Ast.globals)
      (List.length prog.Minic.Ast.funcs);
    0
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and typecheck a MiniC file")
    Term.(const action $ file_arg)

let cmd_run =
  let action path fuel =
    let info = load_runnable path in
    let exec = Minic.Exec.create info in
    match Minic.Exec.run ~fuel exec ~entry:"main" with
    | Minic.Exec.Finished v ->
      Printf.printf "finished: %s (%d statements)\n"
        (match v with Some v -> string_of_int v | None -> "void")
        (Minic.Exec.statements_executed exec);
      0
    | Minic.Exec.Halted ->
      print_endline "halted";
      0
    | Minic.Exec.Fuel_exhausted ->
      print_endline "fuel exhausted";
      1
    | exception Minic.Exec.Assertion_failed pos ->
      Printf.printf "assertion failed at %d:%d\n" pos.Minic.Ast.line
        pos.Minic.Ast.column;
      1
    | exception Minic.Exec.Assumption_failed pos ->
      Printf.printf "assumption failed at %d:%d\n" pos.Minic.Ast.line
        pos.Minic.Ast.column;
      1
    | exception Minic.Exec.Runtime_error (msg, pos) ->
      Printf.printf "runtime error at %d:%d: %s\n" pos.Minic.Ast.line
        pos.Minic.Ast.column msg;
      1
  in
  let fuel =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc:"Statement budget")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute on the bytecode VM, the MiniC backend of approach 2")
    Term.(const action $ file_arg $ fuel)

let cmd_compile =
  let action path show_asm =
    let info = load_runnable path in
    let compiled = Mcc.Codegen.compile info in
    Printf.printf "; %d instructions, data segment %d words\n"
      (List.length compiled.Mcc.Codegen.instructions)
      (Mcc.Symtab.data_words compiled.Mcc.Codegen.symtab);
    List.iter
      (fun (name, addr, size) ->
        Printf.printf ";   %s @ 0x%04X (%d)\n" name addr size)
      (Mcc.Symtab.globals compiled.Mcc.Codegen.symtab);
    if show_asm then print_string compiled.Mcc.Codegen.asm_source;
    0
  in
  let show_asm =
    Arg.(value & flag & info [ "asm" ] ~doc:"Print generated assembly")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile MiniC to the RISC ISA")
    Term.(const action $ file_arg $ show_asm)

let cmd_sim =
  let action path max_cycles =
    let info = load_runnable path in
    let soc = Platform.Soc.create () in
    Platform.Soc.load soc (Mcc.Codegen.compile info);
    (* the clock outlives the CPU: end the run at the cycle it stops *)
    let kernel = Platform.Soc.kernel soc in
    Sim.Kernel.spawn_method kernel
      (Sim.Clock.posedge (Platform.Soc.clock soc))
      (fun () -> if Platform.Soc.cpu_stopped soc then Sim.Kernel.stop kernel);
    Platform.Soc.run ~max_cycles soc;
    let cpu = Platform.Soc.cpu soc in
    (match Cpu.Cpu_core.stop_reason cpu with
    | Cpu.Cpu_core.Halted ->
      Printf.printf "halted after %d cycles, rv=%d\n" (Platform.Soc.cycles soc)
        (Cpu.Cpu_core.reg cpu Cpu.Isa.reg_rv)
    | Cpu.Cpu_core.Trapped code ->
      Printf.printf "trap %d after %d cycles\n" code (Platform.Soc.cycles soc)
    | Cpu.Cpu_core.Running ->
      Printf.printf "still running after %d cycles\n"
        (Platform.Soc.cycles soc));
    (match Platform.Soc.console_output soc with
    | [] -> ()
    | output ->
      Printf.printf "console: %s\n"
        (String.concat " " (List.map string_of_int output)));
    0
  in
  let cycles =
    Arg.(value & opt int 1_000_000 & info [ "cycles" ] ~doc:"Cycle budget")
  in
  Cmd.v (Cmd.info "sim" ~doc:"Execute on the cycle-level SoC model")
    Term.(const action $ file_arg $ cycles)

let cmd_automaton =
  let action text psl =
    let syntax = if psl then `Psl else `Auto in
    let formula =
      front_end "property" (fun () -> Sctc.Prop.parse_exn ~syntax text)
    in
    let props = List.length (Formula.props formula) in
    if props > Ar_automaton.max_props then begin
      Printf.eprintf
        "property too large: %d propositions (AR-automaton synthesis takes \
         at most %d)\n"
        props Ar_automaton.max_props;
      2
    end
    else
      match Ar_automaton.synthesize formula with
      | exception (Ar_automaton.Too_large _ as too_large) ->
        prerr_endline (Printexc.to_string too_large);
        2
      | automaton ->
        Printf.printf "%s\n" (Ar_automaton.stats automaton);
        print_string
          (Il.to_string (Il.of_automaton ~name:"property" automaton));
        0
  in
  let property =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROPERTY")
  in
  let psl =
    Arg.(value & flag & info [ "psl" ]
           ~doc:"Force PSL (default: auto-detect via Sctc.Prop)")
  in
  Cmd.v
    (Cmd.info "automaton"
       ~doc:"Synthesize a property into an AR-automaton (IL text)")
    Term.(const action $ property $ psl)

(* --- verify ---------------------------------------------------------- *)

let cmd_verify =
  let action path approach engine properties props budget flag common =
    let info = load_runnable path in
    let metrics = Tcheck_cli.registry common in
    let backend =
      match approach with
      | 1 -> Verif.Session.Soc_model
      | 2 -> Verif.Session.Derived_model
      | n ->
        Printf.eprintf "unknown approach %d (use 1 or 2)\n" n;
        exit 2
    in
    (* each property is one campaign job: an independent session over the
       same program, fanned out over the worker pool *)
    let named =
      match properties with
      | [] ->
        Printf.eprintf "at least one --property is required\n";
        exit 2
      | [ property ] -> [ ("property", property) ]
      | properties ->
        List.mapi
          (fun i property -> (Printf.sprintf "property%d" (i + 1), property))
          properties
    in
    (* fail fast on malformed propositions and properties, before any
       session is built or trace file written: one positioned error per
       bad text, not a crashed job *)
    let bad what check texts =
      List.filter_map
        (fun (name, text) ->
          match Loc.catch (fun () -> ignore (check text)) with
          | Ok () -> None
          | Error error ->
            Some (Printf.sprintf "%s%s: %s" what name (Loc.to_string error)))
        texts
    in
    let bad =
      bad "--prop " (Verif.Session.check_proposition info) props
      @ bad "tcheck verify: " Sctc.Prop.parse_exn named
    in
    if bad <> [] then begin
      List.iter (Printf.eprintf "%s\n") bad;
      exit 2
    end;
    (* the backend's program form, built once for every job: one
       derived model, and with it one compiled VM program, or one
       ISA image *)
    let compiled, derived =
      match backend with
      | Verif.Session.Soc_model -> (Some (Mcc.Codegen.compile info), None)
      | Verif.Session.Derived_model -> (None, Some (Esw.C2sc.derive info))
    in
    let job_of (name, text) =
      Verif.Campaign.job ~label:name (fun trace ->
          let config =
            {
              Verif.Session.default_config with
              Verif.Session.session_name = "cli";
              engine;
              properties = [ (name, text) ];
              propositions = props;
              bound = Some budget;
              seed = common.Tcheck_cli.seed;
              flag;
              trace;
              metrics;
            }
          in
          let session =
            Verif.Session.create ?compiled ?derived ~info config backend
          in
          Verif.Session.run session;
          Verif.Session.result session)
    in
    let summary = Tcheck_cli.execute common metrics (List.map job_of named) in
    Tcheck_cli.finish common metrics;
    List.iter
      (fun outcome ->
        match outcome.Verif.Campaign.result with
        | Error msg ->
          Printf.eprintf "tcheck verify: %s: %s\n"
            outcome.Verif.Campaign.label msg
        | Ok result ->
          List.iter
            (fun p ->
              Printf.printf "%-20s %s%s\n" p.Verif.Result.property
                (Verdict.to_string p.Verif.Result.verdict)
                (match p.Verif.Result.first_final_at with
                | Some tu -> Printf.sprintf "  (final at %d)" tu
                | None -> ""))
            result.Verif.Result.properties)
      summary.Verif.Campaign.outcomes;
    if Verif.Campaign.errors summary <> [] then 2
    else
      match Verif.Campaign.overall summary with
      | Verdict.False -> 1
      | Verdict.True | Verdict.Pending -> 0
  in
  let approach =
    Arg.(value & opt int 2 & info [ "approach" ]
           ~doc:"1 = microprocessor model, 2 = derived SystemC model")
  in
  let property =
    Arg.(value & opt_all string [] & info [ "property" ] ~docv:"PROPERTY"
           ~doc:"FLTL or PSL property over the declared propositions \
                 (syntax auto-detected via Sctc.Prop; repeatable; each \
                 property becomes one campaign job)")
  in
  let props =
    Arg.(value & opt_all Tcheck_cli.prop_conv [] & info [ "prop" ]
           ~docv:"NAME=EXPR"
           ~doc:"Proposition definition (boolean MiniC expression over globals)")
  in
  let budget =
    Arg.(value & opt int 100_000 & info [ "budget" ]
           ~doc:"Cycles (approach 1) or statements (approach 2)")
  in
  let flag =
    Arg.(value & opt (some string) None & info [ "flag" ]
           ~doc:"Initialization flag variable for the approach-1 handshake")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Simulation-based temporal verification with SCTC")
    Term.(const action $ file_arg $ approach $ Tcheck_cli.engine_arg
          $ property $ props $ budget $ flag
          $ Tcheck_cli.term ~default_seed:42)

let cmd_bmc =
  let action path unwind timeout =
    let info = load_runnable path in
    let report = Bmc.check ~unwind ~timeout_seconds:timeout info in
    (match report.Bmc.result with
    | Bmc.Safe { complete } ->
      Printf.printf "SAFE%s (%.2fs, %d circuit nodes, %d cnf vars)\n"
        (if complete then "" else " up to unwind bound")
        report.Bmc.seconds report.Bmc.circuit_nodes report.Bmc.cnf_vars
    | Bmc.Unsafe cex ->
      Printf.printf "UNSAFE: %s at %d:%d (%.2fs)\n" cex.Bmc.violated
        cex.Bmc.position.Minic.Ast.line cex.Bmc.position.Minic.Ast.column
        report.Bmc.seconds;
      List.iter
        (fun (name, v) -> Printf.printf "  %s = %d\n" name v)
        cex.Bmc.input_values
    | Bmc.Out_of_time -> Printf.printf "TIMEOUT after %.2fs\n" report.Bmc.seconds
    | Bmc.Gave_up msg -> Printf.printf "GAVE UP: %s\n" msg);
    match report.Bmc.result with Bmc.Unsafe _ -> 1 | _ -> 0
  in
  let unwind =
    Arg.(value & opt int 20 & info [ "unwind" ] ~doc:"Loop unwinding bound")
  in
  let timeout =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc:"Seconds")
  in
  Cmd.v (Cmd.info "bmc" ~doc:"Bounded model checking (CBMC analog)")
    Term.(const action $ file_arg $ unwind $ timeout)

let cmd_absref =
  let action path timeout =
    let info = load_runnable path in
    let report = Absref.Cegar.check ~timeout_seconds:timeout info in
    (match report.Absref.Cegar.result with
    | Absref.Cegar.Safe ->
      Printf.printf "SAFE (%.2fs, %d iterations, %d predicates)\n"
        report.Absref.Cegar.seconds report.Absref.Cegar.iterations
        report.Absref.Cegar.predicates
    | Absref.Cegar.Bug { path_length; position } ->
      Printf.printf "BUG: path of %d edges, assertion at %d:%d (%.2fs)\n"
        path_length position.Minic.Ast.line position.Minic.Ast.column
        report.Absref.Cegar.seconds
    | Absref.Cegar.Aborted msg ->
      Printf.printf "ABORTED: %s (%.2fs)\n" msg report.Absref.Cegar.seconds
    | Absref.Cegar.Unknown msg ->
      Printf.printf "UNKNOWN: %s (%.2fs)\n" msg report.Absref.Cegar.seconds);
    match report.Absref.Cegar.result with Absref.Cegar.Bug _ -> 1 | _ -> 0
  in
  let timeout =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc:"Seconds")
  in
  Cmd.v
    (Cmd.info "absref"
       ~doc:"Predicate abstraction with refinement (BLAST analog)")
    Term.(const action $ file_arg $ timeout)

let find_op name =
  match Eee.Eee_spec.op_of_name name with
  | Some op -> op
  | None ->
    Printf.eprintf "unknown operation %s\n" name;
    exit 2

let cmd_eee =
  let action approach engine op_names cases bound fault_rate common =
    let ops =
      match op_names with
      | [] -> [ Eee.Eee_spec.Read ]
      | [ "all" ] -> Eee.Eee_spec.all_ops
      | names -> List.map find_op names
    in
    if approach <> 1 && approach <> 2 then begin
      Printf.eprintf "unknown approach %d\n" approach;
      exit 2
    end;
    let metrics = Tcheck_cli.registry common in
    let plan =
      {
        Eee.Harness.default_plan with
        Eee.Harness.ops;
        approaches = [ approach ];
        engine;
        cases_per_op = cases;
        bound;
        fault_rate;
        seed = common.Tcheck_cli.seed;
        metrics;
      }
    in
    let summary =
      Tcheck_cli.execute common metrics (Eee.Harness.campaign_jobs plan)
    in
    Tcheck_cli.finish common metrics;
    List.iter
      (fun outcome ->
        Format.printf "--- %s ---@." outcome.Verif.Campaign.label;
        match outcome.Verif.Campaign.result with
        | Error msg -> Format.printf "job failed: %s@." msg
        | Ok result ->
          Format.printf "%a@." Verif.Result.pp result;
          Format.printf "observed returns: %s@."
            (String.concat ", "
               (match result.Verif.Result.coverage with
               | Some coverage -> Sctc.Coverage.observed coverage
               | None -> [])))
      summary.Verif.Campaign.outcomes;
    if List.length summary.Verif.Campaign.outcomes > 1 then
      Format.printf
        "campaign: %d jobs on %d workers, %.2fs wall (%.2fs of per-job \
         verification time)@."
        (List.length summary.Verif.Campaign.outcomes)
        summary.Verif.Campaign.workers summary.Verif.Campaign.wall_seconds
        (Verif.Campaign.vt_seconds_sum summary);
    if Verif.Campaign.errors summary <> [] then 2 else 0
  in
  let approach =
    Arg.(value & opt int 2 & info [ "approach" ] ~doc:"1 or 2")
  in
  let op =
    Arg.(value & opt_all string [] & info [ "op" ]
           ~doc:"read|write|startup1|startup2|format|prepare|refresh, \
                 repeatable; \"all\" runs every operation (default read)")
  in
  let cases =
    Arg.(value & opt int 100 & info [ "cases" ] ~doc:"Test cases per operation")
  in
  let bound =
    Arg.(value & opt (some int) None & info [ "bound" ]
           ~doc:"Time bound of the response property")
  in
  let fault_rate =
    Arg.(value & opt float 0.02 & info [ "fault-rate" ]
           ~doc:"Flash fault-injection probability")
  in
  Cmd.v
    (Cmd.info "eee" ~doc:"Run a case-study verification campaign")
    Term.(const action $ approach $ Tcheck_cli.engine_arg $ op $ cases
          $ bound $ fault_rate $ Tcheck_cli.term ~default_seed:7)

let cmd_smc =
  let action approach op_name cases quick theta eps delta alpha beta
      max_samples fault_specs prop bound fault_rate common =
    if approach <> 1 && approach <> 2 then begin
      Printf.eprintf "unknown approach %d\n" approach;
      exit 2
    end;
    let op = find_op op_name in
    (match prop with
    | Some name
      when not
             (List.exists
                (fun op -> Eee.Eee_spec.property_name op = name)
                Eee.Eee_spec.all_ops) ->
      Printf.eprintf "unknown property %s (known: %s)\n" name
        (String.concat ", "
           (List.map Eee.Eee_spec.property_name Eee.Eee_spec.all_ops));
      exit 2
    | _ -> ());
    let faults =
      List.fold_left
        (fun faults spec ->
          front_end ("--fault " ^ spec) (fun () ->
              Smc.Faults.parse_knob spec faults))
        Smc.Faults.none fault_specs
    in
    let metrics = Tcheck_cli.registry common in
    let plan =
      {
        Eee.Harness.default_plan with
        Eee.Harness.ops = [ op ];
        approaches = [ approach ];
        cases_per_op = cases;
        bound;
        fault_rate;
        faults;
        flash =
          (if quick then Some (Eee.Harness.flash_quick_config ~fault_rate)
           else None);
        seed = common.Tcheck_cli.seed;
        metrics;
      }
    in
    let spec =
      match theta with
      | Some theta ->
        Smc.Runner.Sequential { theta; delta; alpha; beta; max_samples }
      | None -> Smc.Runner.Fixed { eps; delta }
    in
    let label =
      Printf.sprintf "a%d/%s" approach (Eee.Eee_spec.op_name op)
    in
    let sinks = Tcheck_cli.trace_sinks common metrics in
    let report =
      try
        Smc.Runner.run ~metrics ~workers:common.Tcheck_cli.jobs
          ?window:common.Tcheck_cli.window
          ~sinks ~label
          ~job:(fun ~index ->
            Eee.Harness.smc_sample_job plan ~approach ~op ~index)
          ~succeeded:(Eee.Harness.smc_succeeded ?prop)
          spec
      with Invalid_argument msg | Failure msg ->
        Printf.eprintf "smc: %s\n" msg;
        exit 2
    in
    Tcheck_cli.finish common metrics;
    let monitored =
      match prop with
      | Some name -> name
      | None -> Eee.Eee_spec.property_name op
    in
    Format.printf "campaign %s: property %s, fault stimuli %s@." label
      monitored
      (Smc.Faults.to_string faults);
    Format.printf
      "%d samples (%d successes, %d sample errors), %.2fs wall@."
      report.Smc.Runner.samples report.Smc.Runner.successes
      (List.length report.Smc.Runner.errors)
      report.Smc.Runner.wall_seconds;
    (match report.Smc.Runner.decision with
    | Smc.Runner.Estimate ->
      Format.printf
        "estimate: p = %.4f +/- %.3f with confidence %g (Chernoff N = %d)@."
        report.Smc.Runner.p_hat eps delta report.Smc.Runner.chernoff_n
    | Smc.Runner.Accept_h0 | Smc.Runner.Accept_h1 ->
      let theta = match theta with Some t -> t | None -> assert false in
      (match report.Smc.Runner.decision with
      | Smc.Runner.Accept_h0 ->
        Format.printf "H0 accepted: P(%s holds) >= %.3f@." monitored
          (theta -. delta)
      | Smc.Runner.Accept_h1 ->
        Format.printf "H1 accepted: P(%s holds) <= %.3f@." monitored
          (theta +. delta)
      | Smc.Runner.Estimate -> assert false);
      Format.printf
        "SPRT %s after %d samples (p_hat = %.4f); fixed-size bound %d@."
        (if report.Smc.Runner.forced then "truncated (forced decision)"
         else if report.Smc.Runner.early_stopped then "early-stopped"
         else "stopped")
        report.Smc.Runner.samples report.Smc.Runner.p_hat
        report.Smc.Runner.chernoff_n;
      let cancelled = report.Smc.Runner.stream.Verif.Campaign.cancelled_jobs in
      if cancelled > 0 then
        Format.printf "cancelled %d queued samples on decision@." cancelled);
    List.iter
      (fun (label, msg) -> Format.printf "sample error %s: %s@." label msg)
      report.Smc.Runner.errors;
    if report.Smc.Runner.errors <> [] then 2
    else
      match report.Smc.Runner.decision with
      | Smc.Runner.Accept_h1 -> 1
      | Smc.Runner.Accept_h0 | Smc.Runner.Estimate -> 0
  in
  let approach =
    Arg.(value & opt int 2 & info [ "approach" ] ~doc:"1 or 2")
  in
  let op =
    Arg.(value & opt string "read" & info [ "op" ]
           ~doc:"read|write|startup1|startup2|format|prepare|refresh \
                 (one operation per run)")
  in
  let cases =
    Arg.(value & opt int 1 & info [ "cases" ]
           ~doc:"Test cases per sample (each sample is one \
                 constrained-random campaign against a fresh session)")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Use the quick flash timing (20x faster erase/program) \
                 so each sample runs in milliseconds")
  in
  let theta =
    Arg.(value & opt (some float) None & info [ "theta" ] ~docv:"THETA"
           ~doc:"Run the sequential probability ratio test of H0: \
                 P(property) >= THETA+delta against H1: P(property) <= \
                 THETA-delta; without --theta the campaign runs the \
                 fixed-size Chernoff-Hoeffding estimation instead")
  in
  let eps =
    Arg.(value & opt float 0.05 & info [ "eps" ]
           ~doc:"Accuracy of the fixed-size estimate (half-width of the \
                 confidence interval)")
  in
  let delta =
    Arg.(value & opt float 0.05 & info [ "delta" ]
           ~doc:"Confidence of the fixed-size estimate, or the \
                 indifference half-width of the sequential test")
  in
  let alpha =
    Arg.(value & opt float 0.05 & info [ "alpha" ]
           ~doc:"SPRT type-I error bound (rejecting a true H0)")
  in
  let beta =
    Arg.(value & opt float 0.05 & info [ "beta" ]
           ~doc:"SPRT type-II error bound (accepting a false H0)")
  in
  let max_samples =
    Arg.(value & opt (some int) None & info [ "max-samples" ]
           ~doc:"Truncate the sequential test after this many samples \
                 (default: the Chernoff bound for the same parameters)")
  in
  let fault =
    Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"KNOB"
           ~doc:"Probabilistic fault stimulus, repeatable: \
                 $(b,decay=P) (per-tick flash bit decay), \
                 $(b,power-loss=P) (torn writes / partial erases), \
                 $(b,jitter=P:MAX) (handshake timing jitter, derived \
                 model only)")
  in
  let prop =
    Arg.(value & opt (some string) None & info [ "prop" ] ~docv:"NAME"
           ~doc:"Judge samples by this property's verdict (default: the \
                 conjunction of all registered properties)")
  in
  let bound =
    Arg.(value & opt (some int) None & info [ "bound" ]
           ~doc:"Time bound of the response property")
  in
  let fault_rate =
    Arg.(value & opt float 0.02 & info [ "fault-rate" ]
           ~doc:"Flash program/erase fault-injection probability")
  in
  Cmd.v
    (Cmd.info "smc"
       ~doc:"Statistical model checking over fault-injected campaigns")
    Term.(const action $ approach $ op $ cases $ quick $ theta $ eps
          $ delta $ alpha $ beta $ max_samples $ fault $ prop $ bound
          $ fault_rate $ Tcheck_cli.term ~default_seed:7)

let cmd_metrics =
  let action path =
    match Obs.Export.validate_snapshot_file path with
    | Ok n ->
      Printf.printf "%s: OK (%d metrics)\n" path n;
      0
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      2
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.jsonl")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Validate a metrics JSONL snapshot written by --metrics")
    Term.(const action $ file)

let () =
  let doc = "temporal verification of automotive embedded software" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "tcheck" ~version:"1.0.0" ~doc)
          [
            cmd_parse; cmd_run; cmd_compile; cmd_sim; cmd_automaton;
            cmd_verify; cmd_bmc; cmd_absref; cmd_eee; cmd_smc;
            cmd_metrics;
          ]))
