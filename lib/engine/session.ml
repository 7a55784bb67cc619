module Checker = Sctc.Checker
module Registry = Obs.Registry
module Flash = Dataflash.Flash
module Flash_ctrl = Dataflash.Flash_ctrl
module Map = Cpu.Memory_map

type backend = Soc_model | Derived_model

type config = {
  session_name : string;
  engine : Checker.engine;
  properties : (string * string) list;
  propositions : (string * string) list;
  bound : int option;
  fuel : int;
  chunk : int;
  seed : int;
  flash : Flash.config option;
  flash_faults : Flash.fault_config;
  jitter_prob : float;
  jitter_max : int;
  flag : string option;
  trace : Trace.t;
  metrics : Registry.t;
}

let default_config =
  {
    session_name = "session";
    engine = Sctc.Engine.default;
    properties = [];
    propositions = [];
    bound = None;
    fuel = 50_000_000;
    chunk = 60;
    seed = 42;
    flash = None;
    flash_faults = Flash.no_faults;
    jitter_prob = 0.0;
    jitter_max = 0;
    flag = None;
    trace = Trace.null;
    metrics = Registry.null;
  }

type runtime =
  | Soc of { soc : Platform.Soc.t; monitor : Platform.Esw_monitor.t option }
  | Model of {
      kernel : Sim.Kernel.t;
      model : Esw.Esw_model.t;
      mbox : Platform.Mailbox.t;
    }

type t = {
  config : config;
  runtime : runtime;
  chk : Checker.t;
  sim_timer : Registry.Timer.t; (* stage_simulate_seconds *)
  throughput : Registry.Gauge.t; (* backend time units per wall second *)
  mutable timer_started : float;
  mutable units_at_timer : int;
  mutable crash_reported : bool;
}

(* A proposition definition is a pure expression over the program's
   scalar globals (and [fname], which both backends add). *)
let check_proposition info text =
  let module A = Minic.Ast in
  let rec check (e : A.expr) =
    match e.A.edesc with
    | A.Int_lit _ | A.Bool_lit _ -> ()
    | A.Var "fname" -> ()
    | A.Var x -> (
      match Minic.Typecheck.global_type info x with
      | Some (A.Tint | A.Tbool) -> ()
      | Some _ -> Loc.fail e.A.epos "%s is an array, not a scalar global" x
      | None when Minic.Typecheck.const_value info x <> None ->
        Loc.fail e.A.epos "%s is a constant, not a global variable" x
      | None -> Loc.fail e.A.epos "unknown global %s" x)
    | A.Unop (_, a) -> check a
    | A.Binop (_, a, b) ->
      check a;
      check b
    | A.Index _ | A.Call _ | A.Nondet _ | A.Mem_read _ ->
      Loc.fail e.A.epos "propositions must be pure expressions over globals"
  in
  let expr = Minic.C_parser.parse_expr text in
  check expr;
  expr

exception Proposition_failed of string * Loc.error

let () =
  Printexc.register_printer (function
    | Proposition_failed (name, error) ->
      Some (Printf.sprintf "proposition %s: %s" name (Loc.to_string error))
    | _ -> None)

(* A checked proposition definition compiled once into a closure over
   [reader]s, each global found when the session is built: evaluating
   it allocates nothing beyond what its readers do, and only a zero
   divisor can fail. *)
let rec compile_pure ~prop reader (e : Minic.Ast.expr) : unit -> int =
  let module A = Minic.Ast in
  let module V = Minic.Value in
  let compile = compile_pure ~prop reader in
  match e.A.edesc with
  | A.Int_lit v -> fun () -> v
  | A.Bool_lit b ->
    let v = V.of_bool b in
    fun () -> v
  | A.Var x -> reader x
  | A.Unop (op, a) ->
    let a = compile a in
    fun () -> V.unop op (a ())
  | A.Binop (A.Land, a, b) ->
    let a = compile a and b = compile b in
    fun () -> V.of_bool (V.to_bool (a ()) && V.to_bool (b ()))
  | A.Binop (A.Lor, a, b) ->
    let a = compile a and b = compile b in
    fun () -> V.of_bool (V.to_bool (a ()) || V.to_bool (b ()))
  | A.Binop (op, a, b) ->
    let a = compile a and b = compile b in
    let failed =
      Proposition_failed
        (prop, { Loc.pos = e.A.epos; message = "division by zero" })
    in
    fun () ->
      let va = a () in
      (try V.binop op va (b ()) with V.Division_by_zero -> raise failed)
  | A.Index _ | A.Call _ | A.Nondet _ | A.Mem_read _ -> assert false

let backend_name session =
  match session.runtime with
  | Soc _ -> "approach-1 (microprocessor model)"
  | Model _ -> "approach-2 (derived SystemC model)"

let checker session = session.chk
let trace session = session.config.trace

let reader session name =
  match session.runtime with
  | Model m -> Esw.Esw_model.member_reader m.model name
  | Soc s -> (
    let symtab = Platform.Soc.symtab s.soc in
    match Mcc.Symtab.find_address symtab name with
    | Some address when Mcc.Symtab.size_of symtab name = 1 ->
      fun () -> Platform.Soc.read_mem s.soc address
    | Some _ -> invalid_arg ("Verif.Session.reader: array " ^ name)
    | None -> invalid_arg ("Verif.Session.reader: unknown " ^ name))

let in_function session func =
  match session.runtime with
  | Soc s -> Platform.Mem_prop.in_function s.soc func
  | Model m -> Esw.Esw_prop.in_function m.model func

let mailbox session =
  match session.runtime with
  | Soc s -> Platform.Soc.mailbox s.soc
  | Model m -> m.mbox

let time_units session =
  match session.runtime with
  | Soc s -> Platform.Soc.cycles s.soc
  | Model m -> Esw.Esw_model.statements m.model

let alive session =
  match session.runtime with
  | Soc s -> not (Platform.Soc.cpu_stopped s.soc)
  | Model m -> (
    match Esw.Esw_model.outcome m.model with
    | Esw.Esw_model.Running | Esw.Esw_model.Not_started -> true
    | Esw.Esw_model.Done _ | Esw.Esw_model.Crashed _ -> false)

let crashed session =
  match session.runtime with
  | Soc s -> (
    match Cpu.Cpu_core.stop_reason (Platform.Soc.cpu s.soc) with
    | Cpu.Cpu_core.Trapped code -> Some (Printf.sprintf "trap %d" code)
    | Cpu.Cpu_core.Halted | Cpu.Cpu_core.Running -> None)
  | Model m -> (
    match Esw.Esw_model.outcome m.model with
    | Esw.Esw_model.Crashed exn -> Some (Printexc.to_string exn)
    | _ -> None)

let check_crash session =
  if not session.crash_reported then
    match crashed session with
    | Some reason ->
      session.crash_reported <- true;
      if Trace.enabled session.config.trace then
        Trace.emit session.config.trace (Trace.Software_crashed { reason })
    | None -> ()

let advance session =
  Registry.Timer.time session.sim_timer (fun () ->
      match session.runtime with
      | Soc s -> Platform.Soc.run ~max_cycles:session.config.chunk s.soc
      | Model m ->
        Sim.Kernel.run
          ~max_time:(Sim.Kernel.now m.kernel + session.config.chunk)
          m.kernel);
  check_crash session

let run ?bound session =
  let budget =
    match bound with
    | Some b -> b
    | None -> (
      match session.config.bound with
      | Some b -> b
      | None -> session.config.fuel)
  in
  Registry.Timer.time session.sim_timer (fun () ->
      match session.runtime with
      | Soc s ->
        (* the SoC clock keeps ticking (and triggering the checker) after
           the CPU halts, so consume the budget in chunks and stop on halt *)
        let start = Platform.Soc.cycles s.soc in
        let rec go () =
          let used = Platform.Soc.cycles s.soc - start in
          if (not (Platform.Soc.cpu_stopped s.soc)) && used < budget then begin
            Platform.Soc.run
              ~max_cycles:(min session.config.chunk (budget - used))
              s.soc;
            go ()
          end
        in
        go ()
      | Model m ->
        Sim.Kernel.run ~max_time:(Sim.Kernel.now m.kernel + budget) m.kernel);
  check_crash session

let boot session =
  match session.runtime with
  | Soc s -> (
    match s.monitor with
    | None -> ()
    | Some monitor ->
      let rec go n =
        if (not (Platform.Esw_monitor.initialized monitor)) && n > 0 then begin
          Platform.Soc.run ~max_cycles:200 s.soc;
          go (n - 1)
        end
      in
      go 50;
      if not (Platform.Esw_monitor.initialized monitor) then
        failwith
          (Printf.sprintf "Verif.Session.boot(%s): software never initialized"
             session.config.session_name))
  | Model _ -> advance session

let restart_timer session =
  session.timer_started <- Unix.gettimeofday ();
  session.units_at_timer <- time_units session

let result ?test_cases ?(timeouts = 0) ?coverage session =
  let elapsed = Unix.gettimeofday () -. session.timer_started in
  let synthesis = Checker.synthesis_seconds session.chk in
  let units = time_units session - session.units_at_timer in
  if elapsed > 0.0 then
    Registry.Gauge.set session.throughput (float_of_int units /. elapsed);
  (* the derived model runs MiniC on the VM; the SoC runs compiled code *)
  (match session.runtime with
  | Model _ ->
    Registry.Counter.add
      (Registry.counter session.config.metrics "sim_vm_statements_total"
         ~help:"statements the derived model ran on the MiniC VM")
      units
  | Soc _ -> ());
  {
    Result.backend = backend_name session;
    properties =
      List.map
        (fun (name, verdict) ->
          {
            Result.property = name;
            verdict;
            first_final_at = Checker.first_final_at session.chk name;
          })
        (Checker.verdicts session.chk);
    triggers = Checker.steps session.chk;
    time_units = units;
    vt_seconds = elapsed +. synthesis;
    synthesis_seconds = synthesis;
    test_cases;
    timeouts;
    coverage;
    (* the per-job handoff figure: how many events this session's bus
       published, listener or not — what a campaign sink that reads
       events will receive *)
    trace_events = Trace.events session.config.trace;
  }

let close session = Trace.close session.config.trace

(* ------------------------------------------------------------------ *)
(* Assembly — the one place a verification backend is built            *)

let build_soc config compiled =
  let base = Platform.Soc.default_config in
  let soc_config =
    {
      base with
      Platform.Soc.seed = config.seed;
      flash =
        (match config.flash with
        | Some flash -> flash
        | None -> base.Platform.Soc.flash);
      flash_faults = config.flash_faults;
    }
  in
  let soc = Platform.Soc.create ~config:soc_config () in
  Platform.Soc.load soc compiled;
  soc

(* approach 2 maps the same device topology as the SoC — flash controller,
   flash window, mailbox — into the derived model's virtual memory, so
   both approaches run the identical software against identical devices *)
let build_model config derived =
  let kernel = Sim.Kernel.create () in
  let vmem = Esw.Vmem.create () in
  let prng = Stimuli.Prng.create ~seed:config.seed in
  let flash_config =
    match config.flash with
    | Some flash -> flash
    | None -> Flash.default_config
  in
  let flash =
    Flash.create ~prng:(Stimuli.Prng.split prng "flash-faults")
      ~faults:config.flash_faults flash_config
  in
  let ctrl = Flash_ctrl.create flash in
  Esw.Vmem.map_device vmem (Flash_ctrl.ctrl_device ctrl ~base:Map.flash_ctrl_base);
  Esw.Vmem.map_device vmem
    (Flash_ctrl.window_device ctrl ~base:Map.flash_window_base
       ~size:(min Map.flash_window_size (Flash.size_words flash)));
  let mbox = Platform.Mailbox.create () in
  Esw.Vmem.map_device vmem (Platform.Mailbox.device mbox ~base:Map.mailbox_base);
  (* handshake timing jitter: its own substream of the session master
     stream, only materialized when enabled so jitter-free sessions draw
     nothing extra *)
  let jitter =
    if config.jitter_prob > 0.0 && config.jitter_max > 0 then begin
      let stream = Stimuli.Prng.split prng "handshake-jitter" in
      Some
        (fun () ->
          if Stimuli.Prng.chance stream config.jitter_prob then
            Stimuli.Prng.int_range stream ~lo:1 ~hi:config.jitter_max
          else 0)
    end
    else None
  in
  let model =
    Esw.Esw_model.create kernel ~seed:config.seed
      ~on_tick:(fun () -> Flash.tick flash)
      ?jitter derived ~vmem
  in
  (kernel, model, mbox)

let backend_label = function
  | Soc_model -> "approach1"
  | Derived_model -> "approach2"

let create ?compiled ?derived ?info config backend =
  let propositions =
    match config.propositions, info, derived with
    | [], _, _ -> []
    | propositions, Some info, _
    | propositions, None, Some { Esw.C2sc.model_info = info; _ } ->
      List.map
        (fun (name, text) -> (name, check_proposition info text))
        propositions
    | _, None, None ->
      invalid_arg "Verif.Session.create: config.propositions needs ~info"
  in
  let chk =
    Checker.create ~trace:config.trace ~metrics:config.metrics
      ~name:config.session_name ()
  in
  let require_info what form =
    match info with
    | Some info -> info
    | None ->
      invalid_arg
        (Printf.sprintf
           "Verif.Session.create: the %s backend needs ~%s or ~info" what form)
  in
  let runtime =
    match backend with
    | Soc_model ->
      let compiled =
        match compiled with
        | Some compiled -> compiled
        | None -> Mcc.Codegen.compile (require_info "Soc_model" "compiled")
      in
      let soc = build_soc config compiled in
      let monitor =
        match config.flag with
        | Some flag -> Some (Platform.Esw_monitor.attach soc ~flag chk)
        | None ->
          Sctc.Trigger.on_clock (Platform.Soc.kernel soc)
            (Platform.Soc.clock soc) chk;
          None
      in
      Soc { soc; monitor }
    | Derived_model ->
      let derived =
        match derived with
        | Some derived -> derived
        | None -> Esw.C2sc.derive (require_info "Derived_model" "derived")
      in
      let kernel, model, mbox = build_model config derived in
      Sctc.Trigger.on_event kernel (Esw.Esw_model.pc_event model) chk;
      Esw.Esw_model.start ~fuel:config.fuel model ~entry:"main";
      Model { kernel; model; mbox }
  in
  let session =
    {
      config;
      runtime;
      chk;
      sim_timer = Registry.stage_timer config.metrics Registry.Simulate;
      throughput =
        Registry.gauge config.metrics "session_time_units_per_second"
          ~labels:[ ("backend", backend_label backend) ]
          ~help:"backend time units simulated per wall-clock second";
      timer_started = Unix.gettimeofday ();
      units_at_timer = 0;
      crash_reported = false;
    }
  in
  session.units_at_timer <- time_units session;
  (match runtime with
  | Model _ ->
    Registry.Counter.incr
      (Registry.counter config.metrics "sim_vm_sessions_total"
         ~help:"derived-model sessions created on the MiniC VM")
  | Soc _ -> ());
  let time_source () = time_units session in
  Checker.set_time_source chk time_source;
  if Trace.enabled config.trace then
    Trace.set_time_source config.trace time_source;
  List.iter
    (fun (name, expr) ->
      let value = compile_pure ~prop:name (reader session) expr in
      Checker.register_sampler chk name (fun () ->
          Minic.Value.to_bool (value ())))
    propositions;
  List.iter
    (fun (name, text) ->
      Checker.add_property_text ~engine:config.engine chk ~name text)
    config.properties;
  session
