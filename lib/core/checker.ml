module Registry = Obs.Registry

type engine = Engine.t = Otf | Explicit

type property = {
  prop_name : string;
  monitor : Monitor.t;
  mutable p_map : int array; (* monitor support slot -> plan sample slot *)
  mutable violated_at : int option;
  mutable final_at : int option; (* time units, via the time source *)
  mutable traced_verdict : Verdict.t; (* last verdict published on the bus *)
  mutable traced_any : bool;
}

(* The compiled trigger plan: everything [step] needs, derived once per
   [add_property]/[reset]/finality change instead of per trigger.

   - [slot_props] is the union of the supports of the still-pending
     properties, sorted by name: one shared probe per trigger feeds every
     monitor, the [Trace.Sample] stream, and the stateful propositions
     (which therefore advance exactly once per trigger, however many
     properties share them).
   - [samples] is the shared per-trigger sample vector the slots fill.
   - [sampled_false]/[sampled_true] hold each slot's two possible
     [Trace.Sample] kinds, built here once, so a traced probe allocates
     only its event record.
   - [active] lists the property indices [step] must visit, in insertion
     order: pending monitors, plus final ones whose verdict still has to
     be published on the trace bus / transition counter. Monitors whose
     verdict is final and published are skipped entirely. *)
type plan = {
  slot_names : string array;
  slot_props : Proposition.t array;
  samples : bool array;
  sampled_false : Trace.kind array;
  sampled_true : Trace.kind array;
  active : int array;
}

let empty_plan =
  {
    slot_names = [||];
    slot_props = [||];
    samples = [||];
    sampled_false = [||];
    sampled_true = [||];
    active = [||];
  }

(* metric handles, resolved once at creation; all are shared no-ops on
   [Registry.null], so the hot path pays one boolean test *)
type meters = {
  metered : bool;
  m_triggers : Registry.Counter.t;
  m_transitions : Registry.Counter.t;
  m_step_latency : Registry.Timer.t; (* per-trigger checker latency *)
  m_synthesize : Registry.Timer.t;
  m_parse : Registry.Timer.t;
  m_fills : Registry.Counter.t; (* AR-automaton table entries filled *)
}

type t = {
  c_name : string;
  table : Proposition.Table.table;
  mutable properties : property array; (* insertion order *)
  mutable plan : plan;
  mutable plan_stale : bool;
  mutable step_count : int;
  mutable synthesis_seconds : float;
  mutable violation_callbacks : (string -> int -> unit) list;
  mutable trace : Trace.t;
  mutable time_source : unit -> int;
  meters : meters;
}

let make_meters metrics =
  {
    metered = Registry.enabled metrics;
    m_triggers =
      Registry.counter metrics "sctc_triggers_total"
        ~help:"checker trigger (step) count";
    m_transitions =
      Registry.counter metrics "sctc_verdict_transitions_total"
        ~help:"per-property verdict changes (incl. the first verdict)";
    m_step_latency = Registry.stage_timer metrics Registry.Check;
    m_synthesize = Registry.stage_timer metrics Registry.Synthesize;
    m_parse = Registry.stage_timer metrics Registry.Parse;
    m_fills =
      Registry.counter metrics "sctc_automaton_fills_total"
        ~help:"AR-automaton table entries computed by progression";
  }

let create ?(trace = Trace.null) ?(metrics = Registry.null) ~name () =
  let checker =
    {
      c_name = name;
      table = Proposition.Table.create ();
      properties = [||];
      plan = empty_plan;
      plan_stale = false;
      step_count = 0;
      synthesis_seconds = 0.0;
      violation_callbacks = [];
      trace;
      time_source = (fun () -> 0);
      meters = make_meters metrics;
    }
  in
  (* default time reference: the trigger count itself *)
  checker.time_source <- (fun () -> checker.step_count);
  checker

let trace checker = checker.trace

let set_trace checker trace =
  checker.trace <- trace;
  (* a newly attached bus may owe Verdict_change events for properties
     that settled while untraced; recompiling restores them to [active] *)
  checker.plan_stale <- true

let set_time_source checker source = checker.time_source <- source

let name checker = checker.c_name

let register_proposition checker prop =
  Proposition.Table.register checker.table prop

let register_sampler checker name sampler =
  register_proposition checker (Proposition.make name sampler)

let proposition_names checker = Proposition.Table.names checker.table

let property_names checker =
  Array.fold_right (fun p acc -> p.prop_name :: acc) checker.properties []

let check_support checker formula =
  List.iter
    (fun prop_name ->
      match Proposition.Table.find checker.table prop_name with
      | Some _ -> ()
      | None ->
        invalid_arg
          (Printf.sprintf
             "Checker.add_property: proposition %S is not registered"
             prop_name))
    (Formula.props formula)

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)

(* does this property still owe a verdict publication on the current
   trace bus / transition counter? *)
let needs_publication checker property verdict =
  (Trace.enabled checker.trace || checker.meters.metered)
  && ((not property.traced_any)
     || not (Verdict.equal verdict property.traced_verdict))

let compile_plan checker =
  let properties = checker.properties in
  let visit = ref [] in
  let support_set = Hashtbl.create 16 in
  for i = Array.length properties - 1 downto 0 do
    let property = properties.(i) in
    let verdict = Monitor.verdict property.monitor in
    if Verdict.is_final verdict then begin
      (* no sampling, no stepping; visited once more only to publish *)
      if needs_publication checker property verdict then visit := i :: !visit
    end
    else begin
      visit := i :: !visit;
      Array.iter
        (fun name -> Hashtbl.replace support_set name ())
        (Monitor.support property.monitor)
    end
  done;
  let slot_names =
    Hashtbl.fold (fun name () acc -> name :: acc) support_set []
    |> List.sort String.compare |> Array.of_list
  in
  let slot_of = Hashtbl.create (Array.length slot_names) in
  Array.iteri (fun slot name -> Hashtbl.replace slot_of name slot) slot_names;
  List.iter
    (fun i ->
      let property = properties.(i) in
      if not (Verdict.is_final (Monitor.verdict property.monitor)) then
        property.p_map <-
          Array.map
            (fun name -> Hashtbl.find slot_of name)
            (Monitor.support property.monitor))
    !visit;
  checker.plan <-
    {
      slot_names;
      slot_props =
        Array.map
          (fun name -> Proposition.Table.find_exn checker.table name)
          slot_names;
      samples = Array.make (Array.length slot_names) false;
      sampled_false =
        Array.map (fun prop -> Trace.Sample { prop; value = false }) slot_names;
      sampled_true =
        Array.map (fun prop -> Trace.Sample { prop; value = true }) slot_names;
      active = Array.of_list !visit;
    };
  checker.plan_stale <- false

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* explicit registration explores the domain's table to its fixpoint and
   charges the exploration this call did, an aborted one included; a table
   another registration completed costs (and reports) nothing *)
let explore checker automaton =
  let before = Ar_automaton.build_seconds automaton in
  let charge () =
    let spent = Ar_automaton.build_seconds automaton -. before in
    if spent > 0.0 then begin
      checker.synthesis_seconds <- checker.synthesis_seconds +. spent;
      Registry.Timer.observe checker.meters.m_synthesize spent
    end
  in
  Fun.protect ~finally:charge (fun () ->
      Ar_automaton.explore automaton)

let add_property ?(engine = Engine.default) checker ~name formula =
  if
    Array.exists
      (fun p -> String.equal p.prop_name name)
      checker.properties
  then invalid_arg (Printf.sprintf "Checker.add_property: duplicate %S" name);
  check_support checker formula;
  let automaton = Ar_automaton.shared formula in
  (match (engine : Engine.t) with
  | Otf -> ()
  | Explicit -> explore checker automaton);
  let monitor = Monitor.of_automaton ~name automaton in
  checker.properties <-
    Array.append checker.properties
      [|
        {
          prop_name = name;
          monitor;
          p_map = [||];
          violated_at = None;
          final_at = None;
          traced_verdict = Verdict.Pending;
          traced_any = false;
        };
      |];
  checker.plan_stale <- true

let add_property_text ?engine ?syntax checker ~name text =
  let formula =
    Registry.Timer.time checker.meters.m_parse (fun () ->
        Prop.parse_exn ?syntax text)
  in
  add_property ?engine checker ~name formula

(* ------------------------------------------------------------------ *)
(* The trigger hot path                                                *)

let step_monitors checker =
  if checker.plan_stale then compile_plan checker;
  let plan = checker.plan in
  let tracing = Trace.enabled checker.trace in
  let metered = checker.meters.metered in
  (* shared sample pass: every proposition in the pending properties'
     support is probed exactly once per trigger, in sorted name order *)
  let slots = Array.length plan.slot_props in
  if tracing then
    for i = 0 to slots - 1 do
      let value = Proposition.is_true plan.slot_props.(i) in
      plan.samples.(i) <- value;
      Trace.emit checker.trace
        (if value then plan.sampled_true.(i) else plan.sampled_false.(i))
    done
  else
    for i = 0 to slots - 1 do
      plan.samples.(i) <- Proposition.is_true plan.slot_props.(i)
    done;
  let samples = plan.samples in
  let active = plan.active in
  for k = 0 to Array.length active - 1 do
    let property = checker.properties.(active.(k)) in
    let before_final = Verdict.is_final (Monitor.verdict property.monitor) in
    let verdict =
      if before_final then Monitor.verdict property.monitor
      else Monitor.step_indexed property.monitor ~samples ~map:property.p_map
    in
    if (not before_final) && Verdict.is_final verdict then begin
      if property.final_at = None then
        property.final_at <- Some (checker.time_source ());
      (* drop the settled monitor from the active set at the next trigger *)
      checker.plan_stale <- true
    end;
    if
      (tracing || metered)
      && ((not property.traced_any)
         || not (Verdict.equal verdict property.traced_verdict))
    then begin
      property.traced_any <- true;
      property.traced_verdict <- verdict;
      if metered then Registry.Counter.incr checker.meters.m_transitions;
      if tracing then
        Trace.emit checker.trace
          (Trace.Verdict_change { property = property.prop_name; verdict });
      if before_final then
        (* a final verdict published late (e.g. a bus attached after the
           monitor settled): nothing left to publish, drop it next time *)
        checker.plan_stale <- true
    end;
    if
      (not before_final)
      && Verdict.equal verdict Verdict.False
      && property.violated_at = None
    then begin
      property.violated_at <- Some checker.step_count;
      List.iter
        (fun callback -> callback property.prop_name checker.step_count)
        checker.violation_callbacks
    end
  done

(* one trigger; when metered, stamp the per-trigger latency histogram
   and the table entries the trigger filled (a per-domain count) *)
let step checker =
  checker.step_count <- checker.step_count + 1;
  if checker.meters.metered then begin
    let fills = Ar_automaton.fills () in
    let started = Unix.gettimeofday () in
    step_monitors checker;
    Registry.Timer.observe checker.meters.m_step_latency
      (Unix.gettimeofday () -. started);
    Registry.Counter.add checker.meters.m_fills (Ar_automaton.fills () - fills);
    Registry.Counter.incr checker.meters.m_triggers
  end
  else step_monitors checker

let trigger checker =
  if Trace.enabled checker.trace then Trace.emit checker.trace Trace.Trigger;
  step checker

let steps checker = checker.step_count

let active_properties checker =
  if checker.plan_stale then compile_plan checker;
  Array.length checker.plan.active

let sampled_propositions checker =
  if checker.plan_stale then compile_plan checker;
  Array.to_list checker.plan.slot_names

(* ------------------------------------------------------------------ *)
(* Verdict observers                                                   *)

let unknown_property checker caller name =
  invalid_arg
    (Printf.sprintf "Checker.%s(%s): unknown property %S (known: %s)" caller
       checker.c_name name
       (match property_names checker with
       | [] -> "none"
       | names -> String.concat ", " names))

let find_property checker name =
  Array.find_opt
    (fun p -> String.equal p.prop_name name)
    checker.properties

let verdict checker name =
  match find_property checker name with
  | Some property -> Monitor.verdict property.monitor
  | None -> unknown_property checker "verdict" name

let verdict_opt checker name =
  Option.map (fun p -> Monitor.verdict p.monitor) (find_property checker name)

let verdicts checker =
  Array.fold_right
    (fun p acc -> (p.prop_name, Monitor.verdict p.monitor) :: acc)
    checker.properties []

let overall checker =
  Array.fold_left
    (fun acc p -> Verdict.combine acc (Monitor.verdict p.monitor))
    Verdict.True checker.properties

let finalize ?strong checker =
  Array.fold_right
    (fun p acc -> (p.prop_name, Monitor.finalize ?strong p.monitor) :: acc)
    checker.properties []

let first_final_at checker name =
  match find_property checker name with
  | Some property -> property.final_at
  | None -> unknown_property checker "first_final_at" name

let first_final_at_opt checker name =
  match find_property checker name with
  | Some property -> property.final_at
  | None -> None

let reset checker =
  checker.step_count <- 0;
  Array.iter
    (fun p ->
      Monitor.reset p.monitor;
      p.violated_at <- None;
      p.final_at <- None;
      p.traced_verdict <- Verdict.Pending;
      p.traced_any <- false)
    checker.properties;
  List.iter
    (fun prop_name ->
      Proposition.reset (Proposition.Table.find_exn checker.table prop_name))
    (Proposition.Table.names checker.table);
  checker.plan_stale <- true

let synthesis_seconds checker = checker.synthesis_seconds

let on_violation checker callback =
  checker.violation_callbacks <- callback :: checker.violation_callbacks
