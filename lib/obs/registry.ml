(* Metrics registry. Recording never takes a lock: each metric keeps a
   per-domain cell behind a [Domain.DLS] key, created on a domain's
   first record and registered (under the metric's mutex, once per
   domain) so readers can sum over every cell ever created. Cells are
   written by exactly one domain, so plain mutable fields suffice;
   readers may observe a value mid-update, which for monotonic sums
   means an instantaneously slightly-stale but never torn figure. The
   registry keeps only the cells alive after a domain dies, mirroring
   the cons-stats registry in lib/logic/formula.ml. *)

type labels = (string * string) list

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let default_time_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.5; 1.0; 5.0; 10.0 |]

(* --- per-domain cells ---------------------------------------------------- *)

(* A cell list + DLS key pair; ['cell] is the per-domain state. *)
type 'cell cells = {
  lock : Mutex.t;
  all : 'cell list ref;
  key : 'cell Domain.DLS.key;
}

let make_cells fresh =
  let lock = Mutex.create () in
  let all = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let cell = fresh () in
        Mutex.lock lock;
        all := cell :: !all;
        Mutex.unlock lock;
        cell)
  in
  { lock; all; key }

let my_cell cells = Domain.DLS.get cells.key

let fold_cells cells f init =
  Mutex.lock cells.lock;
  let all = !(cells.all) in
  Mutex.unlock cells.lock;
  List.fold_left f init all

(* --- counters ------------------------------------------------------------ *)

module Counter = struct
  type cell = { mutable n : int }
  type t = Noop | Active of cell cells

  let incr = function
    | Noop -> ()
    | Active cells ->
      let cell = my_cell cells in
      cell.n <- cell.n + 1

  let add counter k =
    match counter with
    | Noop -> ()
    | Active cells ->
      let cell = my_cell cells in
      cell.n <- cell.n + k

  let value = function
    | Noop -> 0
    | Active cells -> fold_cells cells (fun acc cell -> acc + cell.n) 0
end

(* --- gauges -------------------------------------------------------------- *)

module Gauge = struct
  type t = Noop | Active of float Atomic.t

  let set gauge v =
    match gauge with Noop -> () | Active cell -> Atomic.set cell v

  let value = function Noop -> 0.0 | Active cell -> Atomic.get cell
end

(* --- histograms / timers ------------------------------------------------- *)

module Histogram = struct
  type cell = {
    counts : int array; (* one slot per bound + the +inf overflow slot *)
    mutable h_sum : float;
    mutable h_count : int;
  }

  type active = { bounds : float array; cells : cell cells }
  type t = Noop | Active of active

  let make bounds =
    Array.iteri
      (fun i bound ->
        if i > 0 && bound <= bounds.(i - 1) then
          invalid_arg "Obs.Registry.histogram: buckets must strictly increase")
      bounds;
    Active
      {
        bounds;
        cells =
          make_cells (fun () ->
              {
                counts = Array.make (Array.length bounds + 1) 0;
                h_sum = 0.0;
                h_count = 0;
              });
      }

  let bucket_index bounds v =
    let n = Array.length bounds in
    let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe histogram v =
    match histogram with
    | Noop -> ()
    | Active { bounds; cells } ->
      let cell = my_cell cells in
      let slot = bucket_index bounds v in
      cell.counts.(slot) <- cell.counts.(slot) + 1;
      cell.h_sum <- cell.h_sum +. v;
      cell.h_count <- cell.h_count + 1

  let count = function
    | Noop -> 0
    | Active { cells; _ } ->
      fold_cells cells (fun acc cell -> acc + cell.h_count) 0

  let sum = function
    | Noop -> 0.0
    | Active { cells; _ } ->
      fold_cells cells (fun acc cell -> acc +. cell.h_sum) 0.0

  let merged_counts { bounds; cells } =
    let merged = Array.make (Array.length bounds + 1) 0 in
    fold_cells cells
      (fun () cell ->
        Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) cell.counts)
      ();
    merged

  let buckets = function
    | Noop -> [ (infinity, 0) ]
    | Active active ->
      let merged = merged_counts active in
      let cumulative = ref 0 in
      Array.to_list merged
      |> List.mapi (fun i n ->
             cumulative := !cumulative + n;
             let bound =
               if i < Array.length active.bounds then active.bounds.(i)
               else infinity
             in
             (bound, !cumulative))

  let quantile histogram q =
    match histogram with
    | Noop -> 0.0
    | Active active ->
      let merged = merged_counts active in
      let total = Array.fold_left ( + ) 0 merged in
      if total = 0 then 0.0
      else begin
        let rank =
          max 1 (int_of_float (ceil (q *. float_of_int total)))
        in
        let rec go i cumulative =
          if i >= Array.length merged then infinity
          else
            let cumulative = cumulative + merged.(i) in
            if cumulative >= rank then
              if i < Array.length active.bounds then active.bounds.(i)
              else infinity
            else go (i + 1) cumulative
        in
        go 0 0
      end
end

module Timer = struct
  type t = Histogram.t

  let observe = Histogram.observe

  let time timer thunk =
    match timer with
    | Histogram.Noop -> thunk ()
    | Histogram.Active _ ->
      let started = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          Histogram.observe timer (Unix.gettimeofday () -. started))
        thunk

  let seconds = Histogram.sum
end

(* --- the registry -------------------------------------------------------- *)

type kind =
  | K_counter of Counter.t
  | K_gauge of Gauge.t
  | K_histogram of Histogram.t

type entry = {
  e_name : string;
  e_labels : labels;
  e_help : string;
  e_kind : kind;
}

type t = {
  active : bool;
  reg_lock : Mutex.t;
  mutable entries : entry list; (* reversed registration order *)
  index : (string * labels, entry) Hashtbl.t;
}

let create () =
  {
    active = true;
    reg_lock = Mutex.create ();
    entries = [];
    index = Hashtbl.create 64;
  }

let null =
  {
    active = false;
    reg_lock = Mutex.create ();
    entries = [];
    index = Hashtbl.create 1;
  }

let enabled registry = registry.active

let kind_label = function
  | K_counter _ -> "counter"
  | K_gauge _ -> "gauge"
  | K_histogram _ -> "histogram"

(* find-or-create under the registry lock; recording never comes here *)
let intern registry ~name ~labels ~help make same =
  let labels = canonical_labels labels in
  Mutex.lock registry.reg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry.reg_lock)
    (fun () ->
      match Hashtbl.find_opt registry.index (name, labels) with
      | Some entry -> (
        match same entry.e_kind with
        | Some metric -> metric
        | None ->
          invalid_arg
            (Printf.sprintf
               "Obs.Registry: %S is already registered as a %s" name
               (kind_label entry.e_kind)))
      | None ->
        let metric, kind = make () in
        let entry = { e_name = name; e_labels = labels; e_help = help; e_kind = kind } in
        Hashtbl.add registry.index (name, labels) entry;
        registry.entries <- entry :: registry.entries;
        metric)

let counter ?(help = "") ?(labels = []) registry name =
  if not registry.active then Counter.Noop
  else
    intern registry ~name ~labels ~help
      (fun () ->
        let metric = Counter.Active (make_cells (fun () -> { Counter.n = 0 })) in
        (metric, K_counter metric))
      (function K_counter metric -> Some metric | _ -> None)

let gauge ?(help = "") ?(labels = []) registry name =
  if not registry.active then Gauge.Noop
  else
    intern registry ~name ~labels ~help
      (fun () ->
        let metric = Gauge.Active (Atomic.make 0.0) in
        (metric, K_gauge metric))
      (function K_gauge metric -> Some metric | _ -> None)

let histogram ?(help = "") ?(labels = []) ?(buckets = default_time_buckets)
    registry name =
  if not registry.active then Histogram.Noop
  else
    intern registry ~name ~labels ~help
      (fun () ->
        let metric = Histogram.make buckets in
        (metric, K_histogram metric))
      (function K_histogram metric -> Some metric | _ -> None)

let timer ?help ?labels registry name = histogram ?help ?labels registry name

type stage = Parse | Synthesize | Simulate | Check | Merge

let stage_name = function
  | Parse -> "stage_parse_seconds"
  | Synthesize -> "stage_synthesize_seconds"
  | Simulate -> "stage_simulate_seconds"
  | Check -> "stage_check_seconds"
  | Merge -> "stage_merge_seconds"

let stage_help = function
  | Parse -> "property/proposition parsing time"
  | Synthesize -> "explicit AR-automaton synthesis time"
  | Simulate -> "backend simulation time (contains check)"
  | Check -> "per-trigger checker latency"
  | Merge -> "campaign result/trace merge time"

let stage_timer registry stage =
  timer ~help:(stage_help stage) registry (stage_name stage)

(* --- snapshots ----------------------------------------------------------- *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of { count : int; sum : float; buckets : (float * int) list }

type metric = { name : string; labels : labels; help : string; value : value }

let snapshot registry =
  Mutex.lock registry.reg_lock;
  let entries = registry.entries in
  Mutex.unlock registry.reg_lock;
  List.rev_map
    (fun entry ->
      let value =
        match entry.e_kind with
        | K_counter metric -> Counter_value (Counter.value metric)
        | K_gauge metric -> Gauge_value (Gauge.value metric)
        | K_histogram metric ->
          Histogram_value
            {
              count = Histogram.count metric;
              sum = Histogram.sum metric;
              buckets = Histogram.buckets metric;
            }
      in
      { name = entry.e_name; labels = entry.e_labels; help = entry.e_help; value })
    entries

let total registry name =
  List.fold_left
    (fun acc metric ->
      match metric.value with
      | Counter_value n when String.equal metric.name name -> acc + n
      | _ -> acc)
    0 (snapshot registry)

let sum_seconds registry name =
  List.fold_left
    (fun acc metric ->
      match metric.value with
      | Histogram_value { sum; _ } when String.equal metric.name name ->
        acc +. sum
      | _ -> acc)
    0.0 (snapshot registry)
