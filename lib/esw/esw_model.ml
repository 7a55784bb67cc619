type outcome_state =
  | Not_started
  | Running
  | Done of Minic.Vm.outcome
  | Crashed of exn

type t = {
  kernel : Sim.Kernel.t;
  derived : C2sc.derived;
  vm : Minic.Vm.t;
  hooks : Minic.Vm.hooks;
  pc_ev : Sim.Kernel.event;
  on_tick : unit -> unit;
  jitter : (unit -> int) option;
  mutable state : outcome_state;
  mutable stmt_count : int;
}

let create kernel ?(seed = 42) ?(on_tick = fun () -> ()) ?jitter derived
    ~vmem =
  let prng = Stimuli.Prng.create ~seed in
  let stimulus = Stimuli.Prng.split prng "stimulus" in
  {
    kernel;
    derived;
    vm = Minic.Vm.create derived.C2sc.model_info;
    hooks =
      {
        Minic.Vm.mem_read = (fun addr -> Vmem.read vmem addr);
        mem_write = (fun addr value -> Vmem.write vmem addr value);
        nondet =
          (fun ~lo ~hi ->
            lo + (Stimuli.Prng.bits stimulus land 0xFFFFF) mod (hi - lo + 1));
        on_statement = (fun _ -> ());
        on_function_entry = (fun _ -> ());
      };
    pc_ev = Sim.Kernel.event kernel "esw_pc_event";
    on_tick;
    jitter;
    state = Not_started;
    stmt_count = 0;
  }

let derived model = model.derived
let pc_event model = model.pc_ev
let statements model = model.stmt_count
let read_member model name = Minic.Vm.read_global model.vm name
let member_reader model name = Minic.Vm.global_reader model.vm name
let outcome model = model.state

(* the software has ended: one final notification exposes the state
   after its last statement, since the pc event fires before each *)
let finish model state =
  model.state <- state;
  Sim.Kernel.notify model.pc_ev;
  1

(* one run of the model's timed process: the statement that began at
   the last tick executes, up to the next tick *)
let advance model =
  match Minic.Vm.step model.vm with
  | Minic.Vm.Ticked ->
    model.stmt_count <- model.stmt_count + 1;
    model.on_tick ();
    Sim.Kernel.notify model.pc_ev;
    (* timing jitter stretches the statement's simulated duration;
       statement count (and therefore the property time base under
       [statements]-driven bounds) is unaffected *)
    (match model.jitter with None -> 1 | Some draw -> 1 + max 0 (draw ()))
  | Minic.Vm.Ended result -> finish model (Done result)
  | exception
      ((Minic.Vm.Assertion_failed _ | Minic.Vm.Assumption_failed _
       | Minic.Vm.Runtime_error _) as exn) ->
    finish model (Crashed exn)

let start ?(fuel = 50_000_000) model ~entry =
  if model.state <> Not_started then
    invalid_arg "Esw_model.start: already started";
  Minic.Vm.start ~fuel model.vm model.hooks ~entry;
  model.state <- Running;
  Sim.Kernel.spawn_timed model.kernel (fun () ->
      match model.state with
      | Running -> advance model
      | Not_started | Done _ | Crashed _ -> 0)
