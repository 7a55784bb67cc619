type state_kind = Accept | Reject | Pend

exception Too_large of int

let () =
  Printexc.register_printer (function
    | Too_large states ->
      Some
        (Printf.sprintf
           "property too large: synthesis stopped at %d AR-automaton states"
           states)
    | _ -> None)

let max_props = 16
let max_dense_props = 12
let unfilled = -1

(* One state's successors, indexed by the assignment mask over the root's
   support: a dense array up to [max_dense_props] propositions, a hash
   table above. A dense entry holds [unfilled] until first computed. *)
type row = Dense of int array | Hashed of (int, int) Hashtbl.t

type t = {
  formula : Formula.t;
  props : string array; (* the root's sorted support: bit i = props.(i) *)
  owner : int; (* the domain that may fill entries *)
  index : (int, int) Hashtbl.t; (* state formula's hash-cons id -> state *)
  mutable states : Formula.t array; (* capacity-doubling; [count] used *)
  mutable kinds : state_kind array;
  mutable rows : row array;
  mutable count : int;
  mutable complete : bool; (* every reachable entry is filled *)
  mutable build_seconds : float;
}

(* Per-domain state: the tables of the roots registered on this domain,
   and the number of entries this domain has filled. *)
type domain_state = { tables : (int, t) Hashtbl.t; mutable fills : int }

let domain_key =
  Domain.DLS.new_key (fun () -> { tables = Hashtbl.create 16; fills = 0 })

let kind_of_formula f =
  match Progression.verdict f with
  | Verdict.True -> Accept
  | Verdict.False -> Reject
  | Verdict.Pending -> Pend

let grow t =
  let capacity = max 16 (2 * t.count) in
  let extend array filler =
    let wider = Array.make capacity filler in
    Array.blit array 0 wider 0 t.count;
    wider
  in
  t.states <- extend t.states t.formula;
  t.kinds <- extend t.kinds Pend;
  t.rows <- extend t.rows (Dense [||])

(* state ids are assigned on first visit *)
let intern t f =
  let key = Formula.hash f in
  match Hashtbl.find_opt t.index key with
  | Some id -> id
  | None ->
    let id = t.count in
    if id = Array.length t.states then grow t;
    let width = Array.length t.props in
    t.states.(id) <- f;
    t.kinds.(id) <- kind_of_formula f;
    t.rows.(id) <-
      (if width <= max_dense_props then Dense (Array.make (1 lsl width) unfilled)
       else Hashed (Hashtbl.create 16));
    t.count <- id + 1;
    Hashtbl.replace t.index key id;
    id

let create formula =
  let props = Array.of_list (Formula.props formula) in
  if Array.length props > Sys.int_size then
    invalid_arg
      (Printf.sprintf
         "Ar_automaton: %d propositions in the support, more than the %d a \
          transition mask holds"
         (Array.length props) Sys.int_size);
  let t =
    {
      formula;
      props;
      owner = (Domain.self () :> int);
      index = Hashtbl.create 64;
      states = [||];
      kinds = [||];
      rows = [||];
      count = 0;
      complete = false;
      build_seconds = 0.0;
    }
  in
  ignore (intern t formula);
  t

let shared formula =
  let domain = Domain.DLS.get domain_key in
  match Hashtbl.find_opt domain.tables (Formula.hash formula) with
  | Some t -> t
  | None ->
    let t = create formula in
    Hashtbl.replace domain.tables (Formula.hash formula) t;
    t

let valuation_of_mask props mask name =
  let rec find i =
    if i >= Array.length props then
      invalid_arg ("Ar_automaton: unknown proposition " ^ name)
    else if String.equal props.(i) name then mask land (1 lsl i) <> 0
    else find (i + 1)
  in
  find 0

(* the only path that writes an entry, so the only one that checks the
   domain: a lookup of a filled entry pays nothing for it *)
let fill t state mask =
  let domain = (Domain.self () :> int) in
  if domain <> t.owner then
    invalid_arg
      (Printf.sprintf
         "Ar_automaton: the table of %s belongs to domain %d; domain %d \
          cannot fill it (step a monitor on the domain that created it)"
         (Formula.to_string t.formula) t.owner domain);
  let target =
    match t.kinds.(state) with
    | Accept | Reject -> state (* absorbing *)
    | Pend ->
      intern t
        (Progression.step t.states.(state) (valuation_of_mask t.props mask))
  in
  (match t.rows.(state) with
  | Dense row -> row.(mask) <- target
  | Hashed row -> Hashtbl.replace row mask target);
  let stats = Domain.DLS.get domain_key in
  stats.fills <- stats.fills + 1;
  target

let next t state mask =
  match t.rows.(state) with
  | Dense row ->
    let target = row.(mask) in
    if target <> unfilled then target else fill t state mask
  | Hashed row -> (
    match Hashtbl.find row mask with
    | target -> target
    | exception Not_found -> fill t state mask)

(* fill every entry of every state, in state-id order; on a fresh table
   that is a breadth-first exploration from the root *)
let explore ?(max_states = 200_000) t =
  if not t.complete then begin
    let width = Array.length t.props in
    if width > max_props then
      invalid_arg
        (Printf.sprintf "Ar_automaton.explore: more than %d propositions"
           max_props);
    let started = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t.build_seconds <-
          t.build_seconds +. (Unix.gettimeofday () -. started))
      (fun () ->
        let check () = if t.count > max_states then raise (Too_large t.count) in
        check ();
        let state = ref 0 in
        while !state < t.count do
          for mask = 0 to (1 lsl width) - 1 do
            ignore (next t !state mask);
            check ()
          done;
          incr state
        done;
        t.complete <- true)
  end

let synthesize ?max_states formula =
  let t = create formula in
  explore ?max_states t;
  t

let fills () = (Domain.DLS.get domain_key).fills
let props a = a.props
let num_states a = a.count
let num_props a = Array.length a.props
let initial _ = 0
let kind a state = a.kinds.(state)
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
