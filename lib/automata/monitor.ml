type formula_state = {
  initial : Formula.t;
  mutable node : Transition_cache.node; (* current residual obligation *)
  mutable sel : int array; (* node props position -> monitor support slot *)
  views : (int, Transition_cache.node * int array) Hashtbl.t;
      (* residual formula id -> (node, sel); per-monitor, so cycles through
         the reachable obligations re-derive the slot mapping once *)
}

type engine =
  | Formula_engine of formula_state
  | Automaton_engine of { automaton : Ar_automaton.t; mutable state : int }

type t = {
  m_name : string;
  engine : engine;
  support : string array; (* proposition names, bitmask order for explicit *)
  mutable step_count : int;
  mutable last_verdict : Verdict.t;
}

let automaton_verdict automaton state =
  match Ar_automaton.kind automaton state with
  | Ar_automaton.Accept -> Verdict.True
  | Ar_automaton.Reject -> Verdict.False
  | Ar_automaton.Pend -> Verdict.Pending

let engine_verdict = function
  | Formula_engine e -> Progression.verdict (Transition_cache.formula e.node)
  | Automaton_engine e -> automaton_verdict e.automaton e.state

let make name engine support =
  {
    m_name = name;
    engine;
    support;
    step_count = 0;
    last_verdict = engine_verdict engine;
  }

(* a residual obligation's support is a subset of the initial formula's,
   so every node proposition resolves to a monitor support slot *)
let slot_of_support support name =
  let rec find i =
    if i >= Array.length support then
      invalid_arg ("Monitor: proposition not in support: " ^ name)
    else if String.equal support.(i) name then i
    else find (i + 1)
  in
  find 0

let view_of support views formula =
  match Hashtbl.find_opt views (Formula.hash formula) with
  | Some view -> view
  | None ->
    let node = Transition_cache.node formula in
    let sel =
      Array.map (slot_of_support support) (Transition_cache.props node)
    in
    Hashtbl.replace views (Formula.hash formula) (node, sel);
    (node, sel)

let of_formula ~name formula =
  let support = Array.of_list (Formula.props formula) in
  let views = Hashtbl.create 16 in
  let node, sel = view_of support views formula in
  make name (Formula_engine { initial = formula; node; sel; views }) support

let of_automaton ~name automaton =
  make name
    (Automaton_engine { automaton; state = Ar_automaton.initial automaton })
    (Ar_automaton.props automaton)

let name monitor = monitor.m_name
let verdict monitor = monitor.last_verdict
let steps monitor = monitor.step_count
let support monitor = Array.copy monitor.support

(* Both engines advance from a mask-indexed view of the current samples:
   [read slot] is the sampled value of [support.(slot)]. The on-the-fly
   engine masks only the residual's own support (canonical across
   monitors, so cache nodes are shared) and memoizes the progression;
   the explicit engine builds the automaton's full support mask. *)
let advance_formula support e read =
  let sel = e.sel in
  let mask = ref 0 in
  Array.iteri (fun i slot -> if read slot then mask := !mask lor (1 lsl i)) sel;
  let next = Transition_cache.step e.node !mask in
  if not (Formula.equal next (Transition_cache.formula e.node)) then begin
    let node, sel = view_of support e.views next in
    e.node <- node;
    e.sel <- sel
  end

let advance monitor read =
  match monitor.engine with
  | Formula_engine e -> advance_formula monitor.support e read
  | Automaton_engine e ->
    let mask = ref 0 in
    for slot = 0 to Array.length monitor.support - 1 do
      if read slot then mask := !mask lor (1 lsl slot)
    done;
    e.state <- Ar_automaton.next e.automaton e.state !mask

let finish_step monitor =
  monitor.step_count <- monitor.step_count + 1;
  monitor.last_verdict <- engine_verdict monitor.engine;
  monitor.last_verdict

let step_indexed monitor ~samples ~map =
  if Verdict.is_final monitor.last_verdict then begin
    monitor.step_count <- monitor.step_count + 1;
    monitor.last_verdict
  end
  else begin
    advance monitor (fun slot -> samples.(map.(slot)));
    finish_step monitor
  end

let finalize ?(strong = false) monitor =
  match monitor.engine with
  | Formula_engine e ->
    Progression.finalize ~strong (Transition_cache.formula e.node)
  | Automaton_engine e ->
    Progression.finalize ~strong
      (Ar_automaton.state_formula e.automaton e.state)

let reset monitor =
  (match monitor.engine with
  | Formula_engine e ->
    let node, sel = view_of monitor.support e.views e.initial in
    e.node <- node;
    e.sel <- sel
  | Automaton_engine e -> e.state <- Ar_automaton.initial e.automaton);
  monitor.step_count <- 0;
  monitor.last_verdict <- engine_verdict monitor.engine
