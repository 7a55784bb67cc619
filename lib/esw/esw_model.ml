type outcome_state =
  | Not_started
  | Running
  | Done of Minic.Exec.outcome
  | Crashed of exn

type t = {
  kernel : Sim.Kernel.t;
  derived : C2sc.derived;
  exec : Minic.Exec.t;
  pc_ev : Sim.Kernel.event;
  mutable state : outcome_state;
  mutable stmt_count : int;
  mutable delay : int; (* time units the statement just begun takes *)
}

(* what the statement hook performs: the software suspends until its
   timed process resumes it [delay] time units later *)
type _ Effect.t += Statement : unit Effect.t

let create kernel ?(seed = 42) ?(on_tick = fun () -> ()) ?jitter
    ?(backend = Minic.Exec.Vm) derived ~vmem =
  let pc_ev = Sim.Kernel.event kernel "esw_pc_event" in
  let exec = Minic.Exec.create ~backend derived.C2sc.model_info in
  let prng = Stimuli.Prng.create ~seed in
  let stimulus = Stimuli.Prng.split prng "stimulus" in
  let model =
    {
      kernel;
      derived;
      exec;
      pc_ev;
      state = Not_started;
      stmt_count = 0;
      delay = 1;
    }
  in
  Minic.Exec.set_hooks exec
    {
      Minic.Exec.mem_read = (fun addr -> Vmem.read vmem addr);
      mem_write = (fun addr value -> Vmem.write vmem addr value);
      nondet =
        (fun ~lo ~hi ->
          lo + (Stimuli.Prng.bits stimulus land 0xFFFFF) mod (hi - lo + 1));
      on_statement =
        (fun _stmt ->
          model.stmt_count <- model.stmt_count + 1;
          on_tick ();
          Sim.Kernel.notify pc_ev;
          (* timing jitter stretches the statement's simulated duration;
             statement count (and therefore the property time base under
             [statements]-driven bounds) is unaffected *)
          let extra = match jitter with None -> 0 | Some draw -> draw () in
          model.delay <- 1 + max 0 extra;
          Effect.perform Statement);
      on_function_entry = (fun _ -> ());
    };
  model

let derived model = model.derived
let pc_event model = model.pc_ev
let statements model = model.stmt_count
let read_member model name = Minic.Exec.read_global model.exec name
let outcome model = model.state

let start ?(fuel = 50_000_000) model ~entry =
  if model.state <> Not_started then
    invalid_arg "Esw_model.start: already started";
  model.state <- Running;
  let body () =
    match Minic.Exec.run ~fuel model.exec ~entry with
    | result -> model.state <- Done result
    | exception
        ((Minic.Exec.Assertion_failed _ | Minic.Exec.Assumption_failed _
         | Minic.Exec.Runtime_error _) as exn) ->
      model.state <- Crashed exn
  in
  (* the coroutine: the rest of the software, and the handler that parks
     it at each statement, both allocated once *)
  let resume = ref (Effect.Shallow.fiber body) in
  let suspend = Some (fun k -> resume := k; model.delay) in
  let handler =
    {
      Effect.Shallow.retc =
        (fun () ->
          (* the pc event fires before each statement, so emit one final
             notification to expose the state after the last statement *)
          Sim.Kernel.notify model.pc_ev;
          1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Shallow.continuation -> int) option ->
          match eff with Statement -> suspend | _ -> None);
    }
  in
  Sim.Kernel.spawn_timed model.kernel (fun () ->
      match model.state with
      | Running -> Effect.Shallow.continue_with !resume () handler
      | Not_started | Done _ | Crashed _ -> 0)
