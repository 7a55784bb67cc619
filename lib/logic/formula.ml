(* Hash-consed FLTL terms.  The cons table maps a structural key (tag,
   child ids, bound, name) to the unique term, so equality is pointer
   equality on [id].  Smart constructors normalise: boolean identities,
   double negation, idempotence/commutativity of [and_]/[or_], and the
   zero-bound collapses of the temporal operators. *)

type t = { id : int; node : node }

and node =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Next of t
  | Finally of int option * t
  | Globally of int option * t
  | Until of int option * t * t
  | Release of int option * t * t

type key = {
  k_tag : int;
  k_bound : int; (* -1 encodes None *)
  k_left : int;
  k_right : int;
  k_name : string;
}

let key_of_node node =
  let bnd = function None -> -1 | Some b -> b in
  match node with
  | True -> { k_tag = 0; k_bound = -1; k_left = -1; k_right = -1; k_name = "" }
  | False -> { k_tag = 1; k_bound = -1; k_left = -1; k_right = -1; k_name = "" }
  | Prop name ->
    { k_tag = 2; k_bound = -1; k_left = -1; k_right = -1; k_name = name }
  | Not f -> { k_tag = 3; k_bound = -1; k_left = f.id; k_right = -1; k_name = "" }
  | And (a, b) ->
    { k_tag = 4; k_bound = -1; k_left = a.id; k_right = b.id; k_name = "" }
  | Or (a, b) ->
    { k_tag = 5; k_bound = -1; k_left = a.id; k_right = b.id; k_name = "" }
  | Next f ->
    { k_tag = 6; k_bound = -1; k_left = f.id; k_right = -1; k_name = "" }
  | Finally (b, f) ->
    { k_tag = 7; k_bound = bnd b; k_left = f.id; k_right = -1; k_name = "" }
  | Globally (b, f) ->
    { k_tag = 8; k_bound = bnd b; k_left = f.id; k_right = -1; k_name = "" }
  | Until (b, f, g) ->
    { k_tag = 9; k_bound = bnd b; k_left = f.id; k_right = g.id; k_name = "" }
  | Release (b, f, g) ->
    { k_tag = 10; k_bound = bnd b; k_left = f.id; k_right = g.id; k_name = "" }

(* The cons table is process-global so term ids — and with them [equal],
   [compare] and every monitor's state space — are consistent across
   domains. A single global mutex made every formula construction in every
   campaign worker serialize through one lock, so the table is split into
   [shard_count] shards (key hash -> shard, one mutex each) with ids drawn
   from one [Atomic.t] counter: ids stay process-globally unique (the
   canonical id ordering of [smart_nary]/[subsume_bounds] only needs
   uniqueness and stability, not density), while unrelated constructions
   touch unrelated locks. In front of the shards sits a domain-local memo
   cache ([Domain.DLS]): a term a domain has consed before is returned
   without taking any lock at all, which is the common case once a
   worker's monitors are warm. The DLS cache stores the globally unique
   term (the same physical value as the shard table), so pointer equality
   on [id] — and physical equality itself — keep holding across domains.
   Everything reachable from a consed term is immutable, so terms can be
   shared freely afterwards. *)

let shard_count = 16 (* power of two: shard index is a mask of the hash *)

type shard = { lock : Mutex.t; table : (key, t) Hashtbl.t }

let shards =
  Array.init shard_count (fun _ ->
      { lock = Mutex.create (); table = Hashtbl.create 256 })

let next_id = Atomic.make 0

(* Contention diagnostics. The shard counters are global atomics: they
   are only touched on a DLS-cache miss, which is rare at steady state.
   DLS hit/miss counts live in a per-domain cell (written by exactly one
   domain, so a plain mutable int), registered once per domain so
   [cons_stats] can sum over all domains ever spawned — the registry
   keeps only the two-word cell alive, never the dead domain's table. *)
let shard_acquisition_count = Atomic.make 0
let shard_contention_count = Atomic.make 0

type dls_cell = { mutable hits : int; mutable misses : int }
type dls_cache = { memo : (key, t) Hashtbl.t; cell : dls_cell }

let dls_registry : dls_cell list ref = ref []
let dls_registry_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let cell = { hits = 0; misses = 0 } in
      Mutex.lock dls_registry_lock;
      dls_registry := cell :: !dls_registry;
      Mutex.unlock dls_registry_lock;
      { memo = Hashtbl.create 1024; cell })

let shard_of_key key = shards.(Hashtbl.hash key land (shard_count - 1))

let lock_counting shard =
  if Mutex.try_lock shard.lock then ()
  else begin
    Atomic.incr shard_contention_count;
    Mutex.lock shard.lock
  end;
  Atomic.incr shard_acquisition_count

let cons node =
  let key = key_of_node node in
  let cache = Domain.DLS.get dls_key in
  match Hashtbl.find_opt cache.memo key with
  | Some term ->
    cache.cell.hits <- cache.cell.hits + 1;
    term
  | None ->
    cache.cell.misses <- cache.cell.misses + 1;
    let shard = shard_of_key key in
    lock_counting shard;
    let term =
      match Hashtbl.find_opt shard.table key with
      | Some term -> term
      | None ->
        let term = { id = Atomic.fetch_and_add next_id 1; node } in
        Hashtbl.replace shard.table key term;
        term
    in
    Mutex.unlock shard.lock;
    Hashtbl.replace cache.memo key term;
    term

type cons_stats = {
  terms : int;
  dls_hits : int;
  dls_misses : int;
  shard_acquisitions : int;
  shard_contention : int;
  shards : int;
}

let cons_stats () =
  let hits = ref 0 and misses = ref 0 in
  Mutex.lock dls_registry_lock;
  List.iter
    (fun cell ->
      hits := !hits + cell.hits;
      misses := !misses + cell.misses)
    !dls_registry;
  Mutex.unlock dls_registry_lock;
  {
    terms = Atomic.get next_id;
    dls_hits = !hits;
    dls_misses = !misses;
    shard_acquisitions = Atomic.get shard_acquisition_count;
    shard_contention = Atomic.get shard_contention_count;
    shards = shard_count;
  }

let tru = cons True
let fls = cons False
let prop name = cons (Prop name)

let not_ f =
  match f.node with
  | True -> fls
  | False -> tru
  | Not inner -> inner
  | Prop _ | And _ | Or _ | Next _ | Finally _ | Globally _ | Until _
  | Release _ ->
    cons (Not f)

(* Conjunction and disjunction are canonicalized modulo associativity,
   commutativity, idempotence and complementary literals: operand chains
   are flattened, deduplicated, sorted by term id and rebuilt as a right
   comb.  This canonical form is what makes formula progression converge
   to a finite set of obligations (the states of the AR-automaton). *)

let rec flatten_binop which f acc =
  match which, f.node with
  | `And, And (a, b) | `Or, Or (a, b) ->
    flatten_binop which a (flatten_binop which b acc)
  | _ -> f :: acc

(* Bound subsumption between same-shaped temporal operands:
   F[b]f ∧ F[b']f = F[min b b']f, G[b]f ∧ G[b']f = G[max]f (and dually for
   disjunction), likewise for until/release on identical operand pairs.
   Without this, progression of G (p -> F[b] q) accumulates one countdown
   obligation per trigger and the AR-automaton explodes. *)
let subsume_bounds which operands =
  let lt a b =
    (* bound ordering with None = infinity *)
    match a, b with
    | None, None -> false
    | None, Some _ -> false
    | Some _, None -> true
    | Some x, Some y -> x < y
  in
  let min_bound a b = if lt a b then a else b in
  let max_bound a b = if lt a b then b else a in
  (* under And: eventualities keep the tightest bound, invariants the
     widest; under Or the duals *)
  let combine_eventual, combine_invariant =
    match which with
    | `And -> (min_bound, max_bound)
    | `Or -> (max_bound, min_bound)
  in
  let table : (int * int * int, t) Hashtbl.t = Hashtbl.create 8 in
  let others = ref [] in
  let stash key make bound =
    match Hashtbl.find_opt table key with
    | None -> Hashtbl.replace table key (make bound)
    | Some existing ->
      let existing_bound =
        match existing.node with
        | Finally (b, _) | Globally (b, _) | Until (b, _, _)
        | Release (b, _, _) ->
          b
        | _ -> assert false
      in
      let better =
        match existing.node with
        | Finally _ | Until _ -> combine_eventual bound existing_bound
        | Globally _ | Release _ -> combine_invariant bound existing_bound
        | _ -> assert false
      in
      Hashtbl.replace table key (make better)
  in
  List.iter
    (fun f ->
      match f.node with
      | Finally (b, g) -> stash (7, g.id, -1) (fun b -> cons (Finally (b, g))) b
      | Globally (b, g) ->
        stash (8, g.id, -1) (fun b -> cons (Globally (b, g))) b
      | Until (b, l, r) ->
        stash (9, l.id, r.id) (fun b -> cons (Until (b, l, r))) b
      | Release (b, l, r) ->
        stash (10, l.id, r.id) (fun b -> cons (Release (b, l, r))) b
      | True | False | Prop _ | Not _ | And _ | Or _ | Next _ ->
        others := f :: !others)
    operands;
  Hashtbl.fold (fun _ f acc -> f :: acc) table !others

let smart_nary which a b =
  let absorbing, neutral =
    match which with `And -> (fls, tru) | `Or -> (tru, fls)
  in
  let operands = flatten_binop which a (flatten_binop which b []) in
  if List.exists (fun f -> f.id = absorbing.id) operands then absorbing
  else begin
    let operands =
      List.filter (fun f -> f.id <> neutral.id) operands
      |> subsume_bounds which
      |> List.sort_uniq (fun x y -> Int.compare x.id y.id)
    in
    let module IS = Set.Make (Int) in
    let ids = IS.of_list (List.map (fun f -> f.id) operands) in
    let complementary =
      List.exists
        (fun f -> match f.node with Not g -> IS.mem g.id ids | _ -> false)
        operands
    in
    if complementary then absorbing
    else
      match List.rev operands with
      | [] -> neutral
      | last :: rev_init ->
        let mk x y =
          match which with `And -> cons (And (x, y)) | `Or -> cons (Or (x, y))
        in
        List.fold_left (fun acc f -> mk f acc) last rev_init
  end

let and_ a b =
  match a.node, b.node with
  | False, _ | _, False -> fls
  | True, _ -> b
  | _, True -> a
  | _ -> if a.id = b.id then a else smart_nary `And a b

let or_ a b =
  match a.node, b.node with
  | True, _ | _, True -> tru
  | False, _ -> b
  | _, False -> a
  | _ -> if a.id = b.id then a else smart_nary `Or a b

let implies a b = or_ (not_ a) b
let iff a b = and_ (implies a b) (implies b a)

let next f =
  match f.node with
  | True -> tru
  | False -> fls
  | Prop _ | Not _ | And _ | Or _ | Next _ | Finally _ | Globally _ | Until _
  | Release _ ->
    cons (Next f)

let check_bound op = function
  | Some b when b < 0 ->
    invalid_arg (Printf.sprintf "Formula.%s: negative bound %d" op b)
  | Some _ | None -> ()

(* Note: a zero bound does NOT collapse ([F[0] f] /= [f]): the residual
   obligation [F[0] f] produced by progression refers to the next trace
   position and must keep its operator so end-of-trace closure can
   distinguish "eventuality left over" (fails strongly) from "invariant
   window ran past the trace end" (discharged). *)

let finally bound f =
  check_bound "finally" bound;
  match f.node with
  | True -> tru
  | False -> fls
  | Finally (None, _) when bound = None -> f (* F F f = F f *)
  | Prop _ | Not _ | And _ | Or _ | Next _ | Finally _ | Globally _ | Until _
  | Release _ ->
    cons (Finally (bound, f))

let globally bound f =
  check_bound "globally" bound;
  match f.node with
  | True -> tru
  | False -> fls
  | Globally (None, _) when bound = None -> f
  | Prop _ | Not _ | And _ | Or _ | Next _ | Finally _ | Globally _ | Until _
  | Release _ ->
    cons (Globally (bound, f))

let until bound f g =
  check_bound "until" bound;
  match f.node, g.node with
  | _, True -> tru
  | _, False -> fls
  | True, _ -> finally bound g
  | _ -> cons (Until (bound, f, g))

let release bound f g =
  check_bound "release" bound;
  match f.node, g.node with
  | _, True -> tru
  | _, False -> fls
  | False, _ -> globally bound g
  | _ -> cons (Release (bound, f, g))

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash f = f.id

let props f =
  let module S = Set.Make (String) in
  let rec collect acc f =
    match f.node with
    | True | False -> acc
    | Prop name -> S.add name acc
    | Not g | Next g | Finally (_, g) | Globally (_, g) -> collect acc g
    | And (a, b) | Or (a, b) | Until (_, a, b) | Release (_, a, b) ->
      collect (collect acc a) b
  in
  S.elements (collect S.empty f)

let rec size f =
  match f.node with
  | True | False | Prop _ -> 1
  | Not g | Next g | Finally (_, g) | Globally (_, g) -> 1 + size g
  | And (a, b) | Or (a, b) | Until (_, a, b) | Release (_, a, b) ->
    1 + size a + size b

let max_bound f =
  let join a b =
    match a, b with
    | None, x | x, None -> x
    | Some x, Some y -> Some (max x y)
  in
  let rec walk f =
    match f.node with
    | True | False | Prop _ -> None
    | Not g | Next g -> walk g
    | Finally (b, g) | Globally (b, g) -> join b (walk g)
    | And (a, b) | Or (a, b) -> join (walk a) (walk b)
    | Until (b, l, r) | Release (b, l, r) ->
      join b (join (walk l) (walk r))
  in
  walk f

let rec is_propositional f =
  match f.node with
  | True | False | Prop _ -> true
  | Not g -> is_propositional g
  | And (a, b) | Or (a, b) -> is_propositional a && is_propositional b
  | Next _ | Finally _ | Globally _ | Until _ | Release _ -> false

let rec nnf f =
  match f.node with
  | True | False | Prop _ -> f
  | And (a, b) -> and_ (nnf a) (nnf b)
  | Or (a, b) -> or_ (nnf a) (nnf b)
  | Next g -> next (nnf g)
  | Finally (b, g) -> finally b (nnf g)
  | Globally (b, g) -> globally b (nnf g)
  | Until (b, l, r) -> until b (nnf l) (nnf r)
  | Release (b, l, r) -> release b (nnf l) (nnf r)
  | Not g -> nnf_neg g

and nnf_neg f =
  match f.node with
  | True -> fls
  | False -> tru
  | Prop _ -> not_ f
  | Not g -> nnf g
  | And (a, b) -> or_ (nnf_neg a) (nnf_neg b)
  | Or (a, b) -> and_ (nnf_neg a) (nnf_neg b)
  | Next g -> next (nnf_neg g)
  | Finally (b, g) -> globally b (nnf_neg g)
  | Globally (b, g) -> finally b (nnf_neg g)
  | Until (b, l, r) -> release b (nnf_neg l) (nnf_neg r)
  | Release (b, l, r) -> until b (nnf_neg l) (nnf_neg r)

let pp_bound fmt = function
  | None -> ()
  | Some b -> Format.fprintf fmt "[%d]" b

(* Precedence climbing for printing: 0 or/.., 1 and, 2 binary temporal,
   3 unary, 4 atom. *)
let rec pp_prec level fmt f =
  let paren needed body =
    if needed then Format.fprintf fmt "(%t)" body else body fmt
  in
  match f.node with
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Prop name -> Format.pp_print_string fmt name
  | Not g -> Format.fprintf fmt "!%a" (pp_prec 3) g
  | Next g -> Format.fprintf fmt "X %a" (pp_prec 3) g
  | Finally (b, g) ->
    Format.fprintf fmt "F%a %a" pp_bound b (pp_prec 3) g
  | Globally (b, g) ->
    Format.fprintf fmt "G%a %a" pp_bound b (pp_prec 3) g
  | And (a, b) ->
    (* left-associative: right-nested conjunctions need parentheses *)
    paren (level > 1) (fun fmt ->
        Format.fprintf fmt "%a & %a" (pp_prec 1) a (pp_prec 2) b)
  | Or (a, b) ->
    paren (level > 0) (fun fmt ->
        Format.fprintf fmt "%a | %a" (pp_prec 0) a (pp_prec 1) b)
  | Until (b, l, r) ->
    paren (level > 2) (fun fmt ->
        Format.fprintf fmt "%a U%a %a" (pp_prec 3) l pp_bound b (pp_prec 2) r)
  | Release (b, l, r) ->
    paren (level > 2) (fun fmt ->
        Format.fprintf fmt "%a R%a %a" (pp_prec 3) l pp_bound b (pp_prec 2) r)

let pp fmt f = pp_prec 0 fmt f
let to_string f = Format.asprintf "%a" pp f

let rec eval_now f valuation =
  match f.node with
  | True -> true
  | False -> false
  | Prop name -> valuation name
  | Not g -> not (eval_now g valuation)
  | And (a, b) -> eval_now a valuation && eval_now b valuation
  | Or (a, b) -> eval_now a valuation || eval_now b valuation
  | Next _ | Finally _ | Globally _ | Until _ | Release _ ->
    invalid_arg "Formula.eval_now: temporal operator"
