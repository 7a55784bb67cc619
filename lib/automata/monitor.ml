type t = {
  m_name : string;
  automaton : Ar_automaton.t;
  width : int; (* support size: slots of [map] *)
  mutable state : int;
  mutable step_count : int;
  mutable last_verdict : Verdict.t;
}

let verdict_of automaton state =
  match Ar_automaton.kind automaton state with
  | Ar_automaton.Accept -> Verdict.True
  | Ar_automaton.Reject -> Verdict.False
  | Ar_automaton.Pend -> Verdict.Pending

let of_automaton ~name automaton =
  let state = Ar_automaton.initial automaton in
  {
    m_name = name;
    automaton;
    width = Ar_automaton.num_props automaton;
    state;
    step_count = 0;
    last_verdict = verdict_of automaton state;
  }

let of_formula ~name formula = of_automaton ~name (Ar_automaton.shared formula)
let name monitor = monitor.m_name
let verdict monitor = monitor.last_verdict
let steps monitor = monitor.step_count
let support monitor = Array.copy (Ar_automaton.props monitor.automaton)

let step_indexed monitor ~samples ~map =
  if not (Verdict.is_final monitor.last_verdict) then begin
    let mask = ref 0 in
    for slot = 0 to monitor.width - 1 do
      if samples.(map.(slot)) then mask := !mask lor (1 lsl slot)
    done;
    let state = Ar_automaton.next monitor.automaton monitor.state !mask in
    monitor.state <- state;
    monitor.last_verdict <- verdict_of monitor.automaton state
  end;
  monitor.step_count <- monitor.step_count + 1;
  monitor.last_verdict

let finalize ?(strong = false) monitor =
  Progression.finalize ~strong
    (Ar_automaton.state_formula monitor.automaton monitor.state)

let reset monitor =
  monitor.state <- Ar_automaton.initial monitor.automaton;
  monitor.step_count <- 0;
  monitor.last_verdict <- verdict_of monitor.automaton monitor.state
