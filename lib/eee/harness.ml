module Flash = Dataflash.Flash
module Session = Verif.Session
module Registry = Obs.Registry

let flash_campaign_config ~fault_rate =
  {
    Flash.num_blocks = 4;
    words_per_block = 128;
    erase_ticks = 800;
    write_ticks = 8;
    write_fail_prob = fault_rate;
    erase_fail_prob = fault_rate /. 2.0;
  }

(* same block layout, 20x faster erase/program timing: for tests that
   need short busy windows without changing what the software sees *)
let flash_quick_config ~fault_rate =
  { (flash_campaign_config ~fault_rate) with Flash.erase_ticks = 40; write_ticks = 4 }

let approach1 ?(fault_rate = 0.02) ?flash ?(faults = Smc.Faults.none)
    ?(seed = 42) ?(chunk_cycles = 60) ?(trace = Verif.Trace.null)
    ?(metrics = Registry.null) () =
  let flash =
    match flash with
    | Some config -> config
    | None -> flash_campaign_config ~fault_rate
  in
  let config =
    Smc.Faults.apply faults
      {
        Session.default_config with
        Session.session_name = "eee-approach1";
        seed;
        chunk = chunk_cycles;
        flash = Some flash;
        flag = Some "flag";
        trace;
        metrics;
      }
  in
  let session =
    Session.create ~compiled:(Eee_program.compile ()) config Session.Soc_model
  in
  (* boot until the software completes its initialization handshake *)
  Session.boot session;
  session

let approach2 ?(fault_rate = 0.02) ?flash ?(faults = Smc.Faults.none)
    ?(seed = 42) ?(chunk_statements = 60) ?(backend = Minic.Exec.Vm)
    ?(trace = Verif.Trace.null) ?(metrics = Registry.null) () =
  let flash =
    match flash with
    | Some config -> config
    | None -> flash_campaign_config ~fault_rate
  in
  let config =
    Smc.Faults.apply faults
      {
        Session.default_config with
        Session.session_name = "eee-approach2";
        seed;
        chunk = chunk_statements;
        flash = Some flash;
        exec_backend = backend;
        trace;
        metrics;
      }
  in
  let session =
    Session.create ~derived:(Eee_program.derive ()) config
      Session.Derived_model
  in
  (* let the model run its initialization *)
  Session.boot session;
  session

(* --- parallel campaigns -------------------------------------------------- *)

type plan = {
  ops : Eee_spec.op list;
  approaches : int list;
  cases_per_op : int;
  bound : int option;
  engine : Sctc.Checker.engine;
  fault_rate : float;
  faults : Smc.Faults.t;
  watchdog_chunks : int;
  seed : int;
  flash : Flash.config option;
  backend : Minic.Exec.kind;
  metrics : Registry.t;
}

let default_plan =
  {
    ops = Eee_spec.all_ops;
    approaches = [ 2 ];
    cases_per_op = 50;
    bound = None;
    engine = Sctc.Engine.default;
    fault_rate = 0.02;
    faults = Smc.Faults.none;
    watchdog_chunks = 200;
    seed = 7;
    flash = None;
    backend = Minic.Exec.Vm;
    metrics = Registry.null;
  }

(* per-(approach, op) metric handles, resolved on the calling domain so
   job closures carry ready handles into the pool *)
let job_meters plan ~approach ~op =
  let metrics = plan.metrics in
  let labels =
    [ ("approach", string_of_int approach); ("op", Eee_spec.op_name op) ]
  in
  let metered = Registry.enabled metrics in
  let cases =
    Registry.counter metrics "eee_cases_total" ~labels
      ~help:"completed constrained-random test cases"
  and timeouts =
    Registry.counter metrics "eee_timeouts_total" ~labels
      ~help:"watchdog hits during campaign jobs"
  and triggers =
    Registry.counter metrics "eee_triggers_total" ~labels
      ~help:"checker triggers consumed by campaign jobs"
  and vt =
    Registry.timer metrics "eee_vt_seconds" ~labels
      ~help:"per-job verification time (paper column V.T.)"
  in
  fun (result : Verif.Result.t) ->
    if metered then begin
      Registry.Counter.add cases (Verif.Result.completed_cases result);
      Registry.Counter.add timeouts result.Verif.Result.timeouts;
      Registry.Counter.add triggers result.Verif.Result.triggers;
      Registry.Timer.observe vt result.Verif.Result.vt_seconds
    end;
    result

(* the common job body: a fresh booted session from an explicit seed,
   the operation's spec installed, one constrained-random campaign *)
let plan_job plan ~approach ~op ~label ~session_seed ~driver_seed =
  let record = job_meters plan ~approach ~op in
  Verif.Campaign.job ~label (fun trace ->
      let session =
        match approach with
        | 1 ->
          approach1 ~fault_rate:plan.fault_rate ?flash:plan.flash
            ~faults:plan.faults ~seed:session_seed ~trace
            ~metrics:plan.metrics ()
        | 2 ->
          approach2 ~fault_rate:plan.fault_rate ?flash:plan.flash
            ~faults:plan.faults ~seed:session_seed ~backend:plan.backend
            ~trace ~metrics:plan.metrics ()
        | n -> invalid_arg (Printf.sprintf "unknown approach %d" n)
      in
      Driver.install_spec ~bound:plan.bound ~engine:plan.engine session
        [ op ];
      let config =
        {
          Driver.test_cases = plan.cases_per_op;
          watchdog_chunks = plan.watchdog_chunks;
          bound = plan.bound;
          engine = plan.engine;
          seed = driver_seed;
        }
      in
      record (Driver.run_campaign session config op))

(* per-job stimulus: two ints off stream [index] of the campaign seed —
   identical for every worker count (see Prng) *)
let job_seeds plan ~index =
  let stream = Stimuli.Prng.of_seed_index ~seed:plan.seed ~index in
  let session_seed = Stimuli.Prng.bits stream in
  let driver_seed = Stimuli.Prng.bits stream in
  (session_seed, driver_seed)

(* the memoized program forms are lazy: force them here, on the calling
   domain, so campaign workers never race to force them *)
let force_programs approaches =
  if List.mem 1 approaches then ignore (Eee_program.compile ());
  if List.mem 2 approaches then ignore (Eee_program.derive ())

let campaign_jobs plan =
  force_programs plan.approaches;
  List.concat_map
    (fun approach -> List.map (fun op -> (approach, op)) plan.ops)
    plan.approaches
  |> List.mapi (fun index (approach, op) ->
         let session_seed, driver_seed = job_seeds plan ~index in
         let label =
           Printf.sprintf "a%d/%s" approach (Eee_spec.op_name op)
         in
         plan_job plan ~approach ~op ~label ~session_seed ~driver_seed)

(* --- statistical model checking samples ---------------------------------- *)

let smc_sample_job plan ~approach ~op ~index =
  force_programs [ approach ];
  let session_seed, driver_seed = job_seeds plan ~index in
  let label =
    Printf.sprintf "a%d/%s/#%d" approach (Eee_spec.op_name op) index
  in
  plan_job plan ~approach ~op ~label ~session_seed ~driver_seed

let smc_succeeded ?prop (outcome : Verif.Campaign.outcome) =
  match outcome.Verif.Campaign.result with
  | Error _ -> false (* a crashed sample never counts as the property holding *)
  | Ok result ->
    let verdict =
      match prop with
      | None -> Verif.Result.overall result
      | Some name -> Verif.Result.verdict result name
    in
    not (Verdict.equal verdict Verdict.False)

let run_campaign ?workers ?window ?sinks plan =
  Verif.Campaign.run_stream ~metrics:plan.metrics ?workers ?window ?sinks
    (campaign_jobs plan)
