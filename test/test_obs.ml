(* lib/obs contract tests: histogram bucketing and quantiles, exact
   counter totals under 4 concurrent domains, byte-golden exporter
   output, the null registry's no-op guarantee, the JSONL snapshot
   validator, the JSON reader's grammar and positioned errors, a fuzz of
   every JSONL reader over the committed corpora, and the engine
   integration (session + campaign metrics, including that metering
   never perturbs the merged campaign trace). *)

module Registry = Obs.Registry
module Export = Obs.Export

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- histograms -------------------------------------------------------- *)

let test_histogram_buckets () =
  let reg = Registry.create () in
  let h = Registry.histogram ~buckets:[| 1.0; 2.0; 3.0 |] reg "h" in
  List.iter (Registry.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.5; 10.0 ];
  check_int "count" 5 (Registry.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 15.5 (Registry.Histogram.sum h);
  (* 1.0 lands in the first bucket: bounds are inclusive upper bounds *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative buckets"
    [ (1.0, 2); (2.0, 3); (3.0, 4); (infinity, 5) ]
    (Registry.Histogram.buckets h)

let test_histogram_quantile () =
  let reg = Registry.create () in
  let h = Registry.histogram ~buckets:[| 1.0; 2.0; 3.0 |] reg "h" in
  check "empty quantile is 0" true (Registry.Histogram.quantile h 0.5 = 0.0);
  List.iter (Registry.Histogram.observe h) [ 0.5; 1.5; 2.5; 10.0 ];
  check "q=0 clamps to rank 1" true (Registry.Histogram.quantile h 0.0 = 1.0);
  check "q=0.25" true (Registry.Histogram.quantile h 0.25 = 1.0);
  check "q=0.5" true (Registry.Histogram.quantile h 0.5 = 2.0);
  check "q=0.75" true (Registry.Histogram.quantile h 0.75 = 3.0);
  check "q=1 in overflow" true (Registry.Histogram.quantile h 1.0 = infinity)

let test_histogram_bad_buckets () =
  let reg = Registry.create () in
  check "non-increasing buckets rejected" true
    (match Registry.histogram ~buckets:[| 1.0; 1.0 |] reg "bad" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- domain-safe recording --------------------------------------------- *)

let test_concurrent_counters () =
  let reg = Registry.create () in
  let c = Registry.counter reg "stress_total" in
  let h = Registry.histogram ~buckets:[| 0.5 |] reg "stress_seconds" in
  let per_domain = 25_000 in
  let work () =
    for i = 1 to per_domain do
      Registry.Counter.incr c;
      Registry.Counter.add c 2;
      Registry.Histogram.observe h (if i mod 2 = 0 then 0.25 else 0.75)
    done
  in
  let spawned = List.init 3 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  (* all four domains recorded into private cells; totals are exact *)
  check_int "counter total" (4 * per_domain * 3) (Registry.Counter.value c);
  check_int "histogram count" (4 * per_domain) (Registry.Histogram.count h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "histogram merge"
    [ (0.5, 4 * per_domain / 2); (infinity, 4 * per_domain) ]
    (Registry.Histogram.buckets h)

(* ---- registration ------------------------------------------------------- *)

let test_interning () =
  let reg = Registry.create () in
  let a = Registry.counter ~labels:[ ("op", "read"); ("approach", "2") ] reg "c" in
  (* same name, same label set in another order: the same metric *)
  let b = Registry.counter ~labels:[ ("approach", "2"); ("op", "read") ] reg "c" in
  Registry.Counter.incr a;
  Registry.Counter.incr b;
  check_int "shared cell" 2 (Registry.Counter.value a);
  check "kind mismatch rejected" true
    (match Registry.gauge reg "c" ~labels:[ ("op", "read"); ("approach", "2") ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "one entry" 1 (List.length (Registry.snapshot reg))

(* ---- exporters ---------------------------------------------------------- *)

let golden_registry () =
  let reg = Registry.create () in
  let c =
    Registry.counter ~help:"total requests" ~labels:[ ("op", "read") ] reg
      "requests_total"
  in
  Registry.Counter.add c 3;
  let g = Registry.gauge ~help:"water level" reg "level" in
  Registry.Gauge.set g 1.5;
  let h =
    Registry.histogram ~help:"latency" ~buckets:[| 0.1; 1.0 |] reg
      "latency_seconds"
  in
  List.iter (Registry.Histogram.observe h) [ 0.05; 0.5; 2.0 ];
  reg

let test_jsonl_golden () =
  check_string "jsonl snapshot"
    "{\"metric\":\"requests_total\",\"type\":\"counter\",\"labels\":{\"op\":\"read\"},\"value\":3}\n\
     {\"metric\":\"level\",\"type\":\"gauge\",\"labels\":{},\"value\":1.5}\n\
     {\"metric\":\"latency_seconds\",\"type\":\"histogram\",\"labels\":{},\"count\":3,\"sum\":2.55,\"buckets\":[{\"le\":0.1,\"count\":1},{\"le\":1,\"count\":2},{\"le\":\"+Inf\",\"count\":3}]}\n"
    (Export.to_jsonl (golden_registry ()))

(* ---- the null registry --------------------------------------------------- *)

let test_null_registry () =
  let reg = Registry.null in
  check "disabled" false (Registry.enabled reg);
  let c = Registry.counter reg "c" in
  Registry.Counter.incr c;
  Registry.Counter.add c 10;
  check_int "counter stays 0" 0 (Registry.Counter.value c);
  let g = Registry.gauge reg "g" in
  Registry.Gauge.set g 4.2;
  check "gauge stays 0" true (Registry.Gauge.value g = 0.0);
  let t = Registry.stage_timer reg Registry.Simulate in
  let ran = ref false in
  check_int "timer runs the thunk" 7
    (Registry.Timer.time t (fun () -> ran := true; 7));
  check "thunk ran" true !ran;
  check "no time recorded" true (Registry.Timer.seconds t = 0.0);
  check_int "empty snapshot" 0 (List.length (Registry.snapshot reg));
  check_string "empty jsonl" "" (Export.to_jsonl reg)

(* ---- snapshot validation ------------------------------------------------- *)

let test_validator_accepts_own_output () =
  let reg = golden_registry () in
  String.split_on_char '\n' (Export.to_jsonl reg)
  |> List.filter (fun line -> line <> "")
  |> List.iter (fun line ->
         match Export.validate_snapshot_line line with
         | Ok () -> ()
         | Error msg -> Alcotest.failf "own output rejected: %s: %s" msg line);
  let path = Filename.temp_file "obs" ".jsonl" in
  Export.write_jsonl path reg;
  (match Export.validate_snapshot_file path with
  | Ok n -> check_int "file metric count" 3 n
  | Error msg -> Alcotest.failf "own file rejected: %s" msg);
  Sys.remove path

let test_validator_rejects () =
  let rejected line =
    match Export.validate_snapshot_line line with
    | Error _ -> true
    | Ok () -> false
  in
  check "not json" true (rejected "nonsense");
  check "not an object" true (rejected "[1,2]");
  check "missing type" true (rejected {|{"metric":"m","labels":{}}|});
  check "unknown type" true
    (rejected {|{"metric":"m","type":"summary","labels":{},"value":1}|});
  check "non-string label" true
    (rejected {|{"metric":"m","type":"counter","labels":{"a":1},"value":1}|});
  check "negative counter" true
    (rejected {|{"metric":"m","type":"counter","labels":{},"value":-1}|});
  check "non-cumulative buckets" true
    (rejected
       {|{"metric":"m","type":"histogram","labels":{},"count":2,"sum":1,"buckets":[{"le":1,"count":2},{"le":"+Inf","count":1}]}|});
  check "non-terminal +Inf" true
    (rejected
       {|{"metric":"m","type":"histogram","labels":{},"count":2,"sum":1,"buckets":[{"le":"+Inf","count":1},{"le":"+Inf","count":2}]}|});
  check "missing +Inf" true
    (rejected
       {|{"metric":"m","type":"histogram","labels":{},"count":1,"sum":1,"buckets":[{"le":1,"count":1}]}|});
  check "+Inf count mismatch" true
    (rejected
       {|{"metric":"m","type":"histogram","labels":{},"count":3,"sum":1,"buckets":[{"le":1,"count":1},{"le":"+Inf","count":2}]}|})

(* ---- the one JSON reader --------------------------------------------------- *)

module Json = Obs.Json

let parse_ok text =
  match Json.parse text with
  | Ok value -> value
  | Error msg -> Alcotest.failf "%S rejected: %s" text msg

let check_error label expected text =
  match Json.parse text with
  | Ok _ -> Alcotest.failf "%s: %S accepted" label text
  | Error msg -> check_string label expected msg

let test_json_numbers () =
  check "integer numerals are exact" true
    (parse_ok (string_of_int max_int) = Json.Int max_int
    && parse_ok (string_of_int min_int) = Json.Int min_int);
  check "fractions and exponents" true
    (parse_ok "[-0.5,1e3,1.33827e+06,2E-2]"
    = Json.Arr
        [ Json.Float (-0.5); Json.Float 1e3; Json.Float 1.33827e+06;
          Json.Float 2e-2 ]);
  check "an integer past the int range is a float" true
    (parse_ok "46116860184273879040" = Json.Float 46116860184273879040.);
  check_error "leading plus" "unexpected '+' at byte 0" "+1";
  check_error "bare fraction" "unexpected '.' at byte 0" ".5";
  check_error "empty fraction" "bad number at byte 2" "1.";
  check_error "empty exponent" "bad number at byte 2" "1e";
  check_error "lone minus" "bad number at byte 1" "-";
  check_error "leading zero" "trailing input at byte 1" "01"

let test_json_strings () =
  check "the eight one-letter escapes" true
    (parse_ok {|"\" \\ \/ \b \f \n \r \t"|}
    = Json.Str "\" \\ / \b \012 \n \r \t");
  check "\\u escapes decode to UTF-8" true
    (parse_ok {|"A\u00e9\u20AC"|} = Json.Str "A\xc3\xa9\xe2\x82\xac");
  check "bytes from 0x80 up pass through" true
    (parse_ok "\"\xff\xc3\xa9\"" = Json.Str "\xff\xc3\xa9");
  check_error "surrogate" "surrogate \\u escape at byte 2" {|"\ud83d\ude00"|};
  check_error "short \\u" "short \\u escape at byte 2" {|"\u12"|};
  check_error "bad hex digit" "bad \\u escape at byte 2" {|"\u00g1"|};
  check_error "unknown escape" "unknown escape \\x at byte 2" {|"\x"|};
  check_error "dangling escape" "dangling escape at byte 2" {|"\|};
  check_error "raw control byte" "control byte in string at byte 2" "\"a\tb\"";
  check_error "unterminated" "unterminated string at byte 3" {|"ab|}

let test_json_structure () =
  check "whitespace around values" true
    (parse_ok " \t{ \"a\" : [ 1 , true , null ] }\r\n"
    = Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Bool true; Json.Null ]) ]);
  check "members keep input order and duplicates" true
    (parse_ok {|{"b":1,"a":2,"b":3}|}
    = Json.Obj [ ("b", Json.Int 1); ("a", Json.Int 2); ("b", Json.Int 3) ]);
  check "512 levels of nesting" true
    (match Json.parse (String.make 512 '[' ^ String.make 512 ']') with
    | Ok _ -> true
    | Error _ -> false);
  check_error "nesting cap" "nesting too deep at byte 512"
    (String.make 600 '[');
  check_error "trailing bytes" "trailing input at byte 2" "{}x";
  check_error "two values" "trailing input at byte 2" "{}{}";
  check_error "empty input" "missing value at byte 0" "";
  check_error "trailing comma" "expected '\"' at byte 7" {|{"a":1,}|};
  check_error "bad literal" "bad literal at byte 0" "tru"

(* every byte, weighted toward the ones the writer escapes *)
let any_string =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size (int_bound 16)
        ~gen:
          (frequency
             [ (1, oneofl [ '"'; '\\'; '\n'; '\x01'; '\x7f' ]); (3, char) ]))

let qcheck_writer_reads_back =
  QCheck.Test.make ~count:2000 ~name:"Json.parse (Json.string s) = Str s"
    any_string (fun s -> Json.parse (Json.string s) = Ok (Json.Str s))

(* ---- fuzzing the JSONL readers -------------------------------------------- *)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")

(* the committed JSONL corpora: the golden traces, the bench trajectory
   and the metrics snapshot of the goldens above (the test runs in
   _build/default/test) *)
let corpus =
  lazy
    (let golden =
       Sys.readdir "golden" |> Array.to_list |> List.sort compare
       |> List.filter (fun file -> Filename.check_suffix file ".jsonl")
       |> List.concat_map (fun file ->
              read_lines (Filename.concat "golden" file))
     in
     let metrics =
       String.split_on_char '\n' (Export.to_jsonl (golden_registry ()))
       |> List.filter (fun line -> line <> "")
     in
     Array.of_list (golden @ read_lines "../BENCH_campaign.json" @ metrics))

(* a corpus line after one to three byte flips, truncations or splices
   with another corpus line *)
let mutant =
  let open QCheck.Gen in
  let pick st =
    let lines = Lazy.force corpus in
    lines.(Random.State.int st (Array.length lines))
  in
  let byte =
    frequency
      [
        (1, oneofl (List.of_seq (String.to_seq "\"\\{}[]:,.-eu0 ")));
        (1, char);
      ]
  in
  let flip s =
    if s = "" then return s
    else
      map2
        (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
        (int_bound (String.length s - 1))
        byte
  in
  let truncate s =
    map (fun i -> String.sub s 0 i) (int_bound (String.length s))
  in
  let splice s =
    pick >>= fun t ->
    map2
      (fun i j -> String.sub s 0 i ^ String.sub t j (String.length t - j))
      (int_bound (String.length s))
      (int_bound (String.length t))
  in
  let rec mutate k s =
    if k = 0 then return s
    else
      frequency [ (3, flip s); (1, truncate s); (1, splice s) ]
      >>= mutate (k - 1)
  in
  pick >>= fun s -> int_range 1 3 >>= fun k -> mutate k s

let positioned msg =
  match String.rindex_opt msg ' ' with
  | Some i ->
    String.ends_with ~suffix:" at byte" (String.sub msg 0 i)
    && int_of_string_opt (String.sub msg (i + 1) (String.length msg - i - 1))
       <> None
  | None -> false

let qcheck_readers_never_raise =
  QCheck.Test.make ~count:3000 ~name:"JSONL readers total on mutated corpora"
    (QCheck.make ~print:String.escaped mutant)
    (fun line ->
      let total name read =
        match read line with
        | _ -> ()
        | exception e ->
          QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
      in
      total "Trace.event_of_json" Verif.Trace.event_of_json;
      total "Bench_log.parse_line" Verif.Bench_log.parse_line;
      total "Export.validate_snapshot_line" Export.validate_snapshot_line;
      match Json.parse line with
      | Ok _ -> true
      | Error msg ->
        positioned msg
        || QCheck.Test.fail_reportf "Obs.Json.parse: unpositioned error %S" msg
      | exception e ->
        QCheck.Test.fail_reportf "Obs.Json.parse raised %s"
          (Printexc.to_string e))

(* ---- engine integration -------------------------------------------------- *)

let source =
  {|
    int x;
    int finished;

    void main(void) {
      int i;
      for (i = 0; i < 8; i = i + 1) {
        x = x + 1;
      }
      finished = 1;
    }
  |}

let program_info = lazy (Minic.Typecheck.check (Minic.C_parser.parse source))

let session_result metrics =
  let config =
    {
      Verif.Session.default_config with
      Verif.Session.session_name = "obs-test";
      propositions = [ ("p_done", "finished == 1") ];
      properties = [ ("eventually_done", "F p_done") ];
      bound = Some 10_000;
      metrics;
    }
  in
  let session =
    Verif.Session.create ~info:(Lazy.force program_info) config
      Verif.Session.Derived_model
  in
  Verif.Session.run session;
  Verif.Session.result session

let test_session_metrics () =
  let reg = Registry.create () in
  let result = session_result reg in
  check_int "triggers counted" result.Verif.Result.triggers
    (Registry.total reg "sctc_triggers_total");
  check "verdict transitions seen" true
    (Registry.total reg "sctc_verdict_transitions_total" >= 1);
  check "check latency recorded" true
    (Registry.total reg "sctc_triggers_total"
     = List.fold_left
         (fun acc m ->
           match m.Registry.value with
           | Registry.Histogram_value { count; _ }
             when m.Registry.name = Registry.stage_name Registry.Check ->
             acc + count
           | _ -> acc)
         0 (Registry.snapshot reg));
  check "simulate stage timed" true
    (Registry.sum_seconds reg (Registry.stage_name Registry.Simulate) > 0.0);
  check "parse stage counted" true
    (Registry.sum_seconds reg (Registry.stage_name Registry.Parse) >= 0.0)

let campaign_jobs () =
  List.init 6 (fun i ->
      Verif.Campaign.job ~label:(Printf.sprintf "job%d" i) (fun trace ->
          let config =
            {
              Verif.Session.default_config with
              Verif.Session.session_name = Printf.sprintf "job%d" i;
              propositions = [ ("p_done", "finished == 1") ];
              properties = [ ("eventually_done", "F p_done") ];
              bound = Some 10_000;
              trace;
            }
          in
          let session =
            Verif.Session.create ~info:(Lazy.force program_info) config
              Verif.Session.Derived_model
          in
          Verif.Session.run session;
          Verif.Session.result session))

(* a campaign with its merged trace rendered by the JSONL buffer sink *)
let traced_campaign ?metrics ~workers () =
  let buffer = Buffer.create 4096 in
  ignore
    (Verif.Campaign.run_stream ?metrics ~workers
       ~sinks:[ Verif.Campaign.jsonl_buffer_sink buffer ]
       (campaign_jobs ()));
  Buffer.contents buffer

let test_campaign_metrics () =
  let reg = Registry.create () in
  let metered = traced_campaign ~metrics:reg ~workers:4 () in
  check_int "jobs counted" 6 (Registry.total reg "campaign_jobs_total");
  check_int "no job errors" 0 (Registry.total reg "campaign_job_errors_total");
  (* metering must not perturb the deterministic merge *)
  check_string "identical merged trace" (traced_campaign ~workers:1 ()) metered;
  check "merge stage timed" true
    (Registry.sum_seconds reg (Registry.stage_name Registry.Merge) >= 0.0)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
        ] );
      ( "domains",
        [ Alcotest.test_case "4-domain stress" `Quick test_concurrent_counters ]
      );
      ("interning", [ Alcotest.test_case "find-or-create" `Quick test_interning ]);
      ( "export",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
        ] );
      ("null", [ Alcotest.test_case "no-op" `Quick test_null_registry ]);
      ( "validate",
        [
          Alcotest.test_case "accepts own output" `Quick
            test_validator_accepts_own_output;
          Alcotest.test_case "rejects bad lines" `Quick test_validator_rejects;
        ] );
      ( "json",
        [
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "strings" `Quick test_json_strings;
          Alcotest.test_case "structure" `Quick test_json_structure;
          QCheck_alcotest.to_alcotest qcheck_writer_reads_back;
          QCheck_alcotest.to_alcotest qcheck_readers_never_raise;
        ] );
      ( "engine",
        [
          Alcotest.test_case "session records" `Quick test_session_metrics;
          Alcotest.test_case "campaign records" `Quick test_campaign_metrics;
        ] );
    ]
