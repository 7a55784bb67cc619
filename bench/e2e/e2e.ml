(* End-to-end campaign benchmark.

   Runs a verification campaign the way a user runs one and reports what
   the user sees: completed test cases per second, per-job latency, the
   set-up time before the first job, and the peak heap. A separate traced
   run times the benchmark's own calls into each layer and reports where
   the wall clock went.

     e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--spans FILE]
     e2e.exe --runs N --json FILE [--seed N] [--seconds S] [--trace 0|1]
     e2e.exe --compare BASE.jsonl CHANGE.jsonl
     e2e.exe --workload NAME --seed N --setup-only

   Run it from the repository root: it reads bench/e2e/expected.jsonl.
   Without --workload every workload runs in a fresh child process, one
   after the other; --spans needs --workload. The last line of a
   single-workload run is its JSON result, and the line before it the
   same result as a flat row, which --runs collects. --setup-only times
   the campaign's set-up once, cold, and prints the seconds; untraced
   runs start it in fresh processes to sample the set-up time. *)

module W = Workload
module Row = Verif.Bench_log
module Json = Verif.Trace.Json

let expected_path = "bench/e2e/expected.jsonl"

(* Every run measures at least this many rounds. The peak heap is taken
   after exactly these rounds, so it does not depend on how many more
   rounds the host's speed allows. *)
let min_rounds = 3

(* cold set-ups sampled by an untraced run, at least *)
let setup_samples = 9

(* [bound]: the share by which the median may worsen before --compare
   calls a change worse; BENCHMARK.json states the same bounds *)
type metric = { name : string; unit : string; lower : bool; bound : float }

(* end-to-end metrics, printed by untraced runs *)
let end_to_end =
  [
    { name = "cases_per_s"; unit = "cases/s"; lower = false; bound = 0.25 };
    { name = "job_p50_ms"; unit = "ms"; lower = true; bound = 0.25 };
    { name = "job_p90_ms"; unit = "ms"; lower = true; bound = 0.25 };
    { name = "setup_s"; unit = "s"; lower = true; bound = 0.25 };
    { name = "peak_heap_mb"; unit = "MB"; lower = true; bound = 0.2 };
  ]

(* per-layer metrics, printed by traced runs *)
let per_layer =
  [
    ("minic.parse_s", "s");
    ("minic.typecheck_s", "s");
    ("compiler.codegen_s", "s");
    ("esw.derive_s", "s");
    ("logic.parse_s", "s");
    ("automata.synth_s", "s");
    ("automata.states", "count");
    ("session.boot_s", "s");
    ("eee.install_s", "s");
    ("eee.run_s", "s");
    ("job.other_s", "s");
    ("eee.cases", "count");
    ("eee.triggers", "count");
    ("eee.time_units", "count");
    ("eee.ns_per_time_unit", "ns");
    ("eee.ns_per_trigger", "ns");
    ("cpu.bare_ns_per_cycle", "ns");
    ("minic.bare_ns_per_statement", "ns");
    ("core.ns_per_trigger_est", "ns");
    ("trace.events", "count");
    ("trace.bytes", "bytes");
    ("trace.ns_per_event", "ns");
    ("campaign.merge_s", "s");
    ("campaign.other_s", "s");
    ("tracing.overhead_frac", "frac");
  ]

type options = {
  workload : string option;
  seed : int option;
  seconds : float;
  trace : bool;
  spans : string option;
  setup_only : bool;
  runs : int option;
  json : string option;
  compare : (string * string) option;
}

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--spans FILE]\n\
    \       e2e.exe --runs N --json FILE [--seed N] [--seconds S] [--trace 0|1]\n\
    \       e2e.exe --compare BASE.jsonl CHANGE.jsonl\n\
    \       e2e.exe --workload NAME --seed N --setup-only";
  exit 2

let parse_options args =
  let number conv value = match conv value with Some v -> v | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: name :: rest -> go { o with workload = Some name } rest
    | "--seed" :: n :: rest -> go { o with seed = Some (number int_of_string_opt n) } rest
    | "--seconds" :: s :: rest ->
      go { o with seconds = number float_of_string_opt s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--spans" :: path :: rest -> go { o with spans = Some path } rest
    | "--setup-only" :: rest -> go { o with setup_only = true } rest
    | "--runs" :: n :: rest -> go { o with runs = Some (number int_of_string_opt n) } rest
    | "--json" :: path :: rest -> go { o with json = Some path } rest
    | "--compare" :: a :: b :: rest -> go { o with compare = Some (a, b) } rest
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = None;
      seconds = 15.0;
      trace = false;
      spans = None;
      setup_only = false;
      runs = None;
      json = None;
      compare = None;
    }
    args

(* --- rows ---------------------------------------------------------------- *)

(* a float with all its digits: the fewest that read back exactly *)
let number v =
  if not (Float.is_finite v) then Json.null
  else
    let short = Printf.sprintf "%.15g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v

let value_json = function
  | Row.Number v -> number v
  | Row.String s -> Json.string s
  | Row.Bool b -> Json.bool b
  | Row.Null -> Json.null

let load_rows path =
  match Row.load path with
  | Ok rows -> rows
  | Error message -> failwith message
  | exception Sys_error message -> failwith message

let expected_row name =
  match
    List.find_opt
      (fun row -> Row.str_field row "workload" = Some name)
      (load_rows expected_path)
  with
  | Some row -> row
  | None -> failwith (Printf.sprintf "%s: no row for %s" expected_path name)

let default_seed name =
  match Row.int_field (expected_row name) "seed" with
  | Some seed -> seed
  | None -> failwith (Printf.sprintf "%s: no seed for %s" expected_path name)

(* the reference outputs of this seed: the checked-in ones for the
   default seed, none otherwise (the run must then agree with its own
   repeat) *)
let reference (w : W.t) ~seed =
  let row = expected_row w.name in
  if Row.int_field row "seed" = Some seed then Some row.fields else None

(* --- child processes ----------------------------------------------------- *)

(* run this executable with [args]; returns its stdout lines (echoed when
   [echo]) and whether it exited 0 *)
let child ~echo args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc =
    match input_line ic with
    | line ->
      if echo then print_endline line;
      read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (lines, ok)

(* the campaign's set-up as a fresh process pays it: the program forms
   are memoized, so a second set-up in one process would be warm *)
let cold_setup_s (w : W.t) ~seed =
  match
    child ~echo:false [ "--workload"; w.name; "--seed"; string_of_int seed; "--setup-only" ]
  with
  | [ line ], true when float_of_string_opt line <> None -> float_of_string line
  | _ -> failwith "the set-up probe process failed"

(* --- reporting ----------------------------------------------------------- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun message -> failures := message :: !failures) fmt

let check_same what ~reference actual =
  match W.mismatches ~reference actual with
  | [] -> ()
  | keys -> fail "%s: %s differ" what (String.concat ", " keys)

(* round 0's outputs, as the row expected.jsonl holds for the default seed *)
let print_digest (w : W.t) ~seed (round : W.round) =
  print_endline
    (Row.render ~table:"e2e.expected"
       (("workload", Json.string w.name)
       :: ("seed", Json.int seed)
       :: List.map (fun (key, value) -> (key, value_json value)) round.digest))

(* A crashed job makes the run incorrect: no workload has one. *)
let report (w : W.t) ~seed ~attempted ~failed ~metrics ~units =
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-30s %16.6g %s\n" name (List.assoc name metrics) unit)
    units;
  if failed > 0 then fail "%d of %d jobs crashed" failed attempted;
  List.iter (fun message -> Printf.printf "FAILED: %s\n" message) (List.rev !failures);
  let correct = !failures = [] in
  let value name = number (List.assoc name metrics) in
  print_endline
    (Row.render ~table:"e2e.run"
       ([
          ("workload", Json.string w.name);
          ("seed", Json.int seed);
          ("correct", Json.bool correct);
          ("attempted", Json.int attempted);
          ("failed", Json.int failed);
        ]
       @ List.map (fun (name, _) -> (name, value name)) units));
  print_endline
    (Json.obj
       [
         ("correct", Json.bool correct);
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.obj
             (List.map
                (fun (name, unit) ->
                  (name, Json.obj [ ("value", value name); ("unit", Json.string unit) ]))
                units) );
       ]);
  exit (if correct then 0 else 1)

let sum f items = List.fold_left (fun acc x -> acc +. f x) 0.0 items
let ratio a b = if b = 0.0 then 0.0 else a /. b
let crashed rounds = List.fold_left (fun acc (r : W.round) -> acc + r.crashed) 0 rounds

(* --- untraced run: the end-to-end metrics -------------------------------- *)

(* This process's own set-up is the first sample of the set-up time;
   a fresh process after every round adds one more, so the samples
   spread over the run like the rounds do. Round 0 runs once untimed
   first: a process's first round is slower (its heap grows, per-domain
   memos fill), and how many timed rounds share that cost would depend
   on the host's speed. The timed round 0 must repeat its outputs. *)
let untraced (w : W.t) ~seed ~seconds =
  let setups = ref [ W.cold_setup w ~seed ] in
  let probe () = setups := cold_setup_s w ~seed :: !setups in
  let warmup = W.run_round w ~seed ~round:0 ~traced:false in
  let started = Spans.now () in
  let rec loop round acc =
    let acc = W.run_round w ~seed ~round ~traced:false :: acc in
    probe ();
    if round + 1 >= min_rounds && Spans.now () -. started >= seconds then List.rev acc
    else loop (round + 1) acc
  in
  let rounds = loop 0 [] in
  while List.length !setups < setup_samples do
    probe ()
  done;
  (* one domain's top heap only grows *)
  let heap_words = (List.nth rounds (min_rounds - 1)).heap_words in
  let first = List.hd rounds in
  print_digest w ~seed first;
  check_same "repeat of round 0" ~reference:warmup.digest first.digest;
  (match reference w ~seed with
  | Some expected -> check_same "round 0 against expected.jsonl" ~reference:expected first.digest
  | None -> ());
  List.iter
    (fun (r : W.round) ->
      if r.jobs <> W.round_size w then fail "a round emitted %d of %d jobs" r.jobs (W.round_size w))
    rounds;
  let durations_ms =
    List.concat_map (fun (r : W.round) -> Array.to_list r.durations) rounds
    |> List.map (fun s -> s *. 1000.0)
  in
  Printf.printf "%s seed %d: %d rounds, %d jobs, %.2f s measured, %d set-ups\n" w.name seed
    (List.length rounds) (List.length durations_ms)
    (sum (fun (r : W.round) -> r.wall) rounds)
    (List.length !setups);
  let rates = List.map (fun (r : W.round) -> W.field r "cases" /. r.wall) rounds in
  Printf.printf "round cases/s: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4g") rates));
  report w ~seed
    ~attempted:(List.length durations_ms)
    ~failed:(crashed rounds)
    ~units:(List.map (fun m -> (m.name, m.unit)) end_to_end)
    ~metrics:
      [
        ("cases_per_s", Stats.median rates);
        ("job_p50_ms", Stats.median durations_ms);
        ("job_p90_ms", Stats.quantile ~n:10 ~i:9 durations_ms);
        ("setup_s", Stats.median !setups);
        ( "peak_heap_mb",
          float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0 );
      ]

(* --- traced run: the per-layer metrics ----------------------------------- *)

let print_partition ~wall layers =
  Printf.printf "self-time partition of %.3f s campaign wall:\n" wall;
  List.iter
    (fun (name, seconds) ->
      Printf.printf "  %-16s %9.3f s %6.1f%%\n" name seconds (100.0 *. ratio seconds wall))
    (List.sort (fun (_, a) (_, b) -> compare b a) layers);
  Printf.printf "  %-16s %9.3f s\n" "sum" (sum snd layers)

let traced (w : W.t) ~seed ~seconds ~spans_file =
  let origin = Spans.now () in
  ignore (W.cold_setup w ~seed);
  let probes = List.init 15 (fun _ -> W.layer_probe w) in
  let probe_layer name = Stats.median (List.map (List.assoc name) probes) in
  let synth_s, states = W.synth_probe w in
  let bare_units = 200_000 in
  let bare_cycle = W.bare_ns_per_unit ~approach:1 ~units:bare_units in
  let bare_statement = W.bare_ns_per_unit ~approach:2 ~units:bare_units in
  (* untraced and traced rounds alternate, over the same job indices, so
     the two sides see the same host conditions; an untimed round first
     keeps the process's slower first round out of the first pair *)
  ignore (W.run_round w ~seed ~round:0 ~traced:false);
  let started = Spans.now () in
  let rec loop round acc =
    let run traced = W.run_round w ~seed ~round ~traced in
    let pair =
      if round mod 2 = 0 then
        let u = run false in
        (u, run true)
      else
        let t = run true in
        (run false, t)
    in
    let acc = pair :: acc in
    if Spans.now () -. started >= seconds then List.rev acc else loop (round + 1) acc
  in
  let pairs = loop 0 [] in
  let untraced_rounds = List.map fst pairs and traced_rounds = List.map snd pairs in
  let first = List.hd traced_rounds in
  print_digest w ~seed first;
  List.iteri
    (fun round ((u : W.round), (t : W.round)) ->
      check_same (Printf.sprintf "traced round %d against untraced" round)
        ~reference:t.digest u.digest)
    pairs;
  (match reference w ~seed with
  | Some expected ->
    check_same "traced round 0 against expected.jsonl" ~reference:expected first.digest
  | None -> ());
  if W.field first "trace_lines" <> 0.0
     && W.field first "trace_lines" <> W.field first "trace_events"
  then fail "trace lines differ from trace events";
  let spans = List.filter_map (fun (r : W.round) -> r.spans) traced_rounds in
  let wall = sum (fun (r : W.round) -> r.wall) traced_rounds in
  let layers = Spans.self_times spans in
  print_partition ~wall layers;
  let layer name = Option.value ~default:0.0 (List.assoc_opt name layers) in
  let n = float_of_int (List.length traced_rounds) in
  let per_round name = layer name /. n in
  if layer "campaign.other" > 0.05 *. wall then
    fail "campaign.other is %.1f%% of the wall clock (over 5%%)"
      (100.0 *. layer "campaign.other" /. wall);
  let total name = sum (fun r -> W.field r name) traced_rounds in
  let run_ns = layer "eee.run" *. 1e9 in
  let bare = if w.approach = 1 then bare_cycle else bare_statement in
  let overhead =
    Stats.median
      (List.map (fun ((u : W.round), (t : W.round)) -> (t.wall -. u.wall) /. u.wall) pairs)
  in
  Printf.printf "%s seed %d: %d traced + %d untraced rounds, tracing overhead %.1f%%\n"
    w.name seed (List.length pairs) (List.length pairs) (100.0 *. overhead);
  Option.iter (fun path -> Spans.write path ~origin spans) spans_file;
  let all_rounds = untraced_rounds @ traced_rounds in
  report w ~seed
    ~attempted:(List.fold_left (fun acc (r : W.round) -> acc + r.jobs) 0 all_rounds)
    ~failed:(crashed all_rounds)
    ~units:per_layer
    ~metrics:
      (List.map
         (fun name -> (name, probe_layer name))
         [ "minic.parse_s"; "minic.typecheck_s"; "compiler.codegen_s"; "esw.derive_s"; "logic.parse_s" ]
      @ [
          ("automata.synth_s", synth_s);
          ("automata.states", float_of_int states);
          ("session.boot_s", per_round "session.boot");
          ("eee.install_s", per_round "eee.install");
          ("eee.run_s", per_round "eee.run");
          ("job.other_s", per_round "job.other");
          ("eee.cases", W.field first "cases");
          ("eee.triggers", W.field first "triggers");
          ("eee.time_units", W.field first "time_units");
          ("eee.ns_per_time_unit", ratio run_ns (total "time_units"));
          ("eee.ns_per_trigger", ratio run_ns (total "triggers"));
          ("cpu.bare_ns_per_cycle", bare_cycle);
          ("minic.bare_ns_per_statement", bare_statement);
          ( "core.ns_per_trigger_est",
            ratio (run_ns -. (bare *. total "time_units")) (total "triggers") );
          ("trace.events", W.field first "trace_events");
          ("trace.bytes", W.field first "trace_bytes");
          ("trace.ns_per_event", W.render_ns_per_event first.sample_events);
          ("campaign.merge_s", per_round "campaign.merge");
          ("campaign.other_s", per_round "campaign.other");
          ("tracing.overhead_frac", overhead);
        ])

(* --- every workload, and repeated runs ----------------------------------- *)

let child_args o ~workload ~seed =
  [ "--workload"; workload; "--seconds"; Printf.sprintf "%g" o.seconds ]
  @ [ "--trace"; (if o.trace then "1" else "0") ]
  @ match seed with Some s -> [ "--seed"; string_of_int s ] | None -> []

let run_all o =
  let ok =
    List.fold_left
      (fun ok workload ->
        let _, child_ok = child ~echo:true (child_args o ~workload ~seed:o.seed) in
        ok && child_ok)
      true W.names
  in
  exit (if ok then 0 else 1)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Each (workload, run) pair in a fresh child process; the workload
   order alternates between runs, and run [i] uses seed [base + i]. The
   file holds one "e2e.run" row per pair, with the child's result row,
   then one "e2e.summary" row per workload and metric. *)
let runs o ~count ~path =
  let rev = git_rev () and cores = Domain.recommended_domain_count () in
  let units = if o.trace then per_layer else List.map (fun m -> (m.name, m.unit)) end_to_end in
  let rows = ref [] and ok = ref true in
  for i = 0 to count - 1 do
    let order = if i mod 2 = 0 then W.names else List.rev W.names in
    List.iter
      (fun workload ->
        let seed = Option.value o.seed ~default:(default_seed workload) + i in
        let lines, child_ok = child ~echo:false (child_args o ~workload ~seed:(Some seed)) in
        let result =
          List.find_map
            (fun line ->
              match Row.parse_line line with
              | Ok row when row.table = "e2e.run" -> Some row
              | _ -> None)
            (List.rev lines)
        in
        let fields =
          match result with
          | Some row ->
            List.filter
              (fun (key, _) -> not (List.mem key [ "table"; "workload"; "seed"; "correct" ]))
              row.fields
          | None -> []
        in
        let correct =
          child_ok
          && Option.bind result (fun row -> Row.bool_field row "correct") = Some true
        in
        ok := !ok && correct;
        Printf.printf "run %d %-16s seed %-4d %s%s\n%!" i workload seed
          (if correct then "ok" else "FAILED")
          (String.concat ""
             (List.map (fun (key, value) -> Printf.sprintf "  %s=%s" key (value_json value)) fields));
        rows :=
          ( workload,
            fields,
            [
              ("workload", Json.string workload);
              ("run", Json.int i);
              ("seed", Json.int seed);
              ("git_rev", Json.string rev);
              ("cores", Json.int cores);
              ("correct", Json.bool correct);
            ] )
          :: !rows)
      order
  done;
  let rows = List.rev !rows in
  let oc = open_out_bin path in
  List.iter
    (fun (_, fields, stamp) ->
      output_string oc
        (Row.render ~table:"e2e.run"
           (stamp @ List.map (fun (key, value) -> (key, value_json value)) fields));
      output_char oc '\n')
    rows;
  List.iter
    (fun workload ->
      List.iter
        (fun (name, unit) ->
          let values =
            List.filter_map
              (fun (w, fields, _) ->
                match List.assoc_opt name fields with
                | Some (Row.Number v) when w = workload -> Some v
                | _ -> None)
              rows
          in
          if values <> [] then begin
            let q1, median, q3 = Stats.quartiles values in
            Printf.printf "%-16s %-28s median %12.6g  IQR/median %5.2f%%  n=%d\n" workload
              name median (100.0 *. Stats.spread values) (List.length values);
            output_string oc
              (Row.render ~table:"e2e.summary"
                 [
                   ("workload", Json.string workload);
                   ("metric", Json.string name);
                   ("unit", Json.string unit);
                   ("n", Json.int (List.length values));
                   ("median", number median);
                   ("q1", number q1);
                   ("q3", number q3);
                   ("spread", number (Stats.spread values));
                 ]);
            output_char oc '\n'
          end)
        units)
    W.names;
  close_out oc;
  exit (if !ok then 0 else 1)

(* --- comparing two run files --------------------------------------------- *)

(* The rule of the benchmark's metric guide: a change is worse when its
   median is worse than the base's by more than the bound; unresolved
   when either side's quartile range exceeds the bound, unless every
   change run beats every base run; improved when it wins at least nine
   in ten run pairs and the medians differ by more than the base's own
   quartile range. *)
let classify ~lower ~bound base change =
  let better a b = if lower then a < b else a > b in
  let q1, mb, q3 = Stats.quartiles base and mc = Stats.median change in
  let worse_by = (if lower then mc -. mb else mb -. mc) /. Float.abs mb in
  let all_better = List.for_all (fun c -> List.for_all (better c) base) change in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base change in
  let wins = List.length (List.filter (fun (b, c) -> better c b) pairs) in
  if Float.max (Stats.spread base) (Stats.spread change) > bound then
    if all_better then "improved" else "unresolved"
  else if worse_by > bound then "worse"
  else if
    wins * 10 >= 9 * List.length pairs && better mc mb && Float.abs (mc -. mb) > q3 -. q1
  then "improved"
  else "no worse"

(* Runs that were not correct are never classified: a change with one
   is worse on that workload, and a base with one cannot be compared
   against. Either exits 1, like a worse metric. *)
let compare_files base_path change_path =
  let runs path = List.filter (fun (row : Row.row) -> row.table = "e2e.run") (load_rows path) in
  let base = runs base_path and change = runs change_path in
  let of_workload rows workload =
    List.filter (fun row -> Row.str_field row "workload" = Some workload) rows
  in
  let incorrect rows =
    List.length (List.filter (fun row -> Row.bool_field row "correct" <> Some true) rows)
  in
  let failed rows =
    List.fold_left
      (fun acc row -> acc + Option.value ~default:0 (Row.int_field row "failed"))
      0 rows
  in
  let values rows name = List.filter_map (fun row -> Row.number row name) rows in
  let worse = ref false in
  Printf.printf "%-16s %-14s %12s %12s %8s %6s  %s\n" "workload" "metric" "base" "change"
    "change%" "bound" "verdict";
  List.iter
    (fun workload ->
      let b = of_workload base workload and c = of_workload change workload in
      let side rows =
        Printf.sprintf "%d of %d runs incorrect, %d jobs crashed" (incorrect rows)
          (List.length rows) (failed rows)
      in
      if incorrect c > 0 || failed c > failed b then begin
        worse := true;
        Printf.printf "%-16s worse: change %s\n" workload (side c)
      end
      else if incorrect b > 0 then begin
        worse := true;
        Printf.printf "%-16s not classified: base %s\n" workload (side b)
      end
      else
        List.iter
          (fun m ->
            match (values b m.name, values c m.name) with
            | [], _ | _, [] -> ()
            | vb, vc ->
              let verdict = classify ~lower:m.lower ~bound:m.bound vb vc in
              if verdict = "worse" then worse := true;
              let mb = Stats.median vb and mc = Stats.median vc in
              Printf.printf "%-16s %-14s %12.6g %12.6g %+7.2f%% %5.0f%%  %s\n" workload m.name
                mb mc
                (100.0 *. (mc -. mb) /. mb)
                (100.0 *. m.bound) verdict)
          end_to_end)
    W.names;
  exit (if !worse then 1 else 0)

(* --- entry --------------------------------------------------------------- *)

let () =
  let o = parse_options (List.tl (Array.to_list Sys.argv)) in
  match o with
  | { compare = Some (a, b); _ } -> compare_files a b
  | { runs = Some count; json = Some path; _ } -> runs o ~count ~path
  | { runs = Some _; json = None; _ } -> usage ()
  | { workload = None; _ } -> run_all o
  | { workload = Some name; _ } -> (
    match W.find name with
    | None ->
      Printf.eprintf "unknown workload %s (known: %s)\n" name (String.concat ", " W.names);
      exit 2
    | Some w ->
      let seed = match o.seed with Some s -> s | None -> default_seed name in
      if o.setup_only then print_endline (number (W.cold_setup w ~seed))
      else if o.trace then traced w ~seed ~seconds:o.seconds ~spans_file:o.spans
      else untraced w ~seed ~seconds:o.seconds)
