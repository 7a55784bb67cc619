type state_kind = Accept | Reject | Pend

type t = {
  formula : Formula.t;
  props : string array;
  states : Formula.t array;
  kinds : state_kind array;
  delta : int array array; (* delta.(state).(assignment mask) *)
  initial : int;
  build_seconds : float;
}

exception Too_large of int

let kind_of_formula f =
  match Progression.verdict f with
  | Verdict.True -> Accept
  | Verdict.False -> Reject
  | Verdict.Pending -> Pend

let max_props = 16

let synthesize ?(max_states = 200_000) formula =
  let started = Unix.gettimeofday () in
  let props = Array.of_list (Formula.props formula) in
  let num_props = Array.length props in
  if num_props > max_props then
    invalid_arg
      (Printf.sprintf "Ar_automaton.synthesize: more than %d propositions"
         max_props);
  let num_assignments = 1 lsl num_props in
  let valuation_of_mask mask name =
    let rec find i =
      if i >= num_props then
        invalid_arg ("Ar_automaton: unknown proposition " ^ name)
      else if String.equal props.(i) name then mask land (1 lsl i) <> 0
      else find (i + 1)
    in
    find 0
  in
  let index_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern f =
    match Hashtbl.find_opt index_of (Formula.hash f) with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      if !count > max_states then raise (Too_large !count);
      Hashtbl.replace index_of (Formula.hash f) id;
      states := f :: !states;
      Queue.add (f, id) queue;
      id
  in
  let initial = intern formula in
  let rows = Hashtbl.create 256 in
  while not (Queue.is_empty queue) do
    let f, id = Queue.pop queue in
    let row =
      match kind_of_formula f with
      | Accept | Reject ->
        (* absorbing *)
        Array.make num_assignments id
      | Pend ->
        Array.init num_assignments (fun mask ->
            intern (Progression.step f (valuation_of_mask mask)))
    in
    Hashtbl.replace rows id row
  done;
  let states = Array.of_list (List.rev !states) in
  let delta =
    Array.init (Array.length states) (fun id -> Hashtbl.find rows id)
  in
  let kinds = Array.map kind_of_formula states in
  {
    formula;
    props;
    states;
    kinds;
    delta;
    initial;
    build_seconds = Unix.gettimeofday () -. started;
  }

(* Per-domain memo cache: campaign jobs over the same property re-derive
   the same automaton once per worker domain, not once per job. The cache
   key is the formula's hash-cons id (process-globally unique) plus the
   synthesis bound, since [max_states] decides whether synthesis raises
   [Too_large]; a failure is cached under the same key, so an over-cap
   property pays its aborted exploration once per domain too. A
   synthesized automaton is immutable after construction, so handing the
   same value to many monitors on the same domain is safe; keeping the
   cache domain-local means no lock on the lookup path. Only the two-word
   stats cell outlives a worker domain in the registry. *)

type cache_cell = { mutable hits : int; mutable misses : int }

let cache_registry : cache_cell list ref = ref []
let cache_registry_lock = Mutex.create ()

let cache_key =
  Domain.DLS.new_key (fun () ->
      let cell = { hits = 0; misses = 0 } in
      Mutex.lock cache_registry_lock;
      cache_registry := cell :: !cache_registry;
      Mutex.unlock cache_registry_lock;
      ((Hashtbl.create 32 : (int * int, (t, int) result) Hashtbl.t), cell))

let synthesize_memo ?(max_states = 200_000) formula =
  let table, cell = Domain.DLS.get cache_key in
  let key = (Formula.hash formula, max_states) in
  match Hashtbl.find_opt table key with
  | Some outcome -> (
    cell.hits <- cell.hits + 1;
    match outcome with
    | Ok automaton -> (automaton, false)
    | Error count -> raise (Too_large count))
  | None -> (
    cell.misses <- cell.misses + 1;
    match synthesize ~max_states formula with
    | automaton ->
      Hashtbl.replace table key (Ok automaton);
      (automaton, true)
    | exception Too_large count ->
      Hashtbl.replace table key (Error count);
      raise (Too_large count))

type cache_stats = { cache_hits : int; cache_misses : int }

let cache_stats () =
  let hits = ref 0 and misses = ref 0 in
  Mutex.lock cache_registry_lock;
  List.iter
    (fun cell ->
      hits := !hits + cell.hits;
      misses := !misses + cell.misses)
    !cache_registry;
  Mutex.unlock cache_registry_lock;
  { cache_hits = !hits; cache_misses = !misses }

let formula a = a.formula
let props a = a.props
let num_states a = Array.length a.states
let num_props a = Array.length a.props
let initial a = a.initial
let kind a state = a.kinds.(state)
let next a state mask = a.delta.(state).(mask)
let state_formula a state = a.states.(state)
let build_seconds a = a.build_seconds

let mask_of_valuation a valuation =
  let mask = ref 0 in
  Array.iteri (fun i name -> if valuation name then mask := !mask lor (1 lsl i))
    a.props;
  !mask

let stats a =
  Printf.sprintf "%d states, %d propositions, built in %.3fs" (num_states a)
    (num_props a) a.build_seconds
