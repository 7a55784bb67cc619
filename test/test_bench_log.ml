(* Decode safety net for the BENCH_campaign.json trajectory reader.
   The fixture lines below are verbatim rows from the repository's own
   trajectory file: the early campaign generations (tagged after the
   fact), plus checker/simulate/campaign rows with the %.6g
   scientific-notation floats the bench writes. Bench_log must keep
   decoding every historical generation — the trajectory is append-only
   and spans the repo's whole life — and must reject an untagged row. *)

module Bench_log = Verif.Bench_log
module Json = Obs.Json

(* ---- verbatim historical fixture lines --------------------------------- *)

(* the very first generation of campaign rows *)
let legacy_campaign =
  {|{"table":"campaign","unix_time":1786041690,"scale":1,"jobs":4,"ops":7,"cases_per_op":40,"seq_seconds":0.217622,"par_seconds":0.396184,"speedup":0.549295,"verdicts_identical":true,"jsonl_identical":true}|}

(* a later generation: queue/cache columns added *)
let legacy_campaign_wide =
  {|{"table":"campaign","unix_time":1786044020,"scale":1,"jobs":1,"cores":1,"ops":7,"cases_per_op":40,"seq_seconds":0.169137,"par_seconds":0.179573,"speedup":0.941885,"synth_seconds":0,"vt_seconds":0.166125,"verdicts_identical":true,"jsonl_identical":true,"queue_chunk":1,"queue_acquisitions":0,"queue_contention":0,"cons_dls_hits":239190,"cons_shard_acquisitions":0,"cons_shard_contention":0,"automaton_cache_hits":0,"automaton_cache_misses":0}|}

(* tagged checker row — scientific-notation floats from Json.float's %.6g *)
let tagged_checker =
  {|{"table":"checker","unix_time":1786047058,"git_rev":"97454da","scale":1,"triggers":200000,"properties":7,"propositions":38,"legacy_tps":375961,"plan_tps":1.33827e+06,"explicit_tps":2.30521e+06,"speedup":3.55959,"prog_cache_hits":1400000,"prog_cache_misses":0,"prog_cache_hit_rate":1,"verdicts_identical":true}|}

let tagged_simulate =
  {|{"table":"simulate","unix_time":1786205197,"git_rev":"a8640e4","scale":1,"jobs":1,"cores":1,"speedup_expected":true,"target_statements":2000000,"interp_statements":2000000,"interp_seconds":0.146039,"interp_sps":1.3695e+07,"vm_statements":2000000,"vm_seconds":0.0670948,"vm_sps":2.98086e+07,"speedup":2.17661,"verdicts_identical":true,"jsonl_identical":true,"sim_interp_statements_total":19740,"sim_vm_statements_total":19740}|}

let tagged_campaign =
  {|{"table":"campaign","unix_time":1786205100,"git_rev":"a8640e4","scale":1,"jobs":2,"speedup":0.95,"verdicts_identical":true,"jsonl_identical":true}|}

let parse_ok line =
  match Bench_log.parse_line line with
  | Ok row -> row
  | Error msg -> Alcotest.failf "fixture line failed to parse: %s" msg

(* ---- untagged rows -------------------------------------------------------- *)

let test_untagged_rows_rejected () =
  (* the first-generation row as it was written, before the tag existed *)
  let untagged =
    {|{"unix_time":1786041690,"scale":1,"jobs":4,"verdicts_identical":true}|}
  in
  List.iter
    (fun line ->
      match Bench_log.parse_line line with
      | Ok row -> Alcotest.failf "untagged row accepted as %S" row.Bench_log.table
      | Error msg ->
        Alcotest.(check string) "error names the missing tag"
          "missing \"table\" tag" msg)
    [ untagged; {|{"legacy_tps":375961}|}; "{}" ]

(* ---- tagged rows and accessors ------------------------------------------ *)

let test_tagged_rows () =
  List.iter
    (fun (line, table) ->
      let row = parse_ok line in
      Alcotest.(check string) "tag decodes" table row.Bench_log.table;
      (* the tag stays visible as an ordinary field too *)
      Alcotest.(check (option string)) "tag field" (Some table)
        (Bench_log.str_field row "table"))
    [
      (legacy_campaign, "campaign");
      (legacy_campaign_wide, "campaign");
      (tagged_checker, "checker");
      (tagged_simulate, "simulate");
      (tagged_campaign, "campaign");
    ]

let test_scientific_notation_numbers () =
  let row = parse_ok tagged_checker in
  Alcotest.(check (option (float 1.0))) "plan_tps in %.6g notation"
    (Some 1.33827e+06)
    (Bench_log.number row "plan_tps");
  Alcotest.(check (option int)) "plain integer column" (Some 200000)
    (Bench_log.int_field row "triggers");
  Alcotest.(check (option string)) "string column" (Some "97454da")
    (Bench_log.str_field row "git_rev")

let test_accessor_kind_mismatch () =
  let row = parse_ok tagged_checker in
  Alcotest.(check (option string)) "number is not a string" None
    (Bench_log.str_field row "speedup");
  Alcotest.(check (option (float 0.))) "bool is not a number" None
    (Bench_log.number row "verdicts_identical");
  Alcotest.(check (option bool)) "absent key" None
    (Bench_log.bool_field row "no_such_column")

let test_field_order_preserved () =
  let row = parse_ok legacy_campaign in
  Alcotest.(check (list string)) "fields keep line order"
    [
      "table"; "unix_time"; "scale"; "jobs"; "ops"; "cases_per_op";
      "seq_seconds"; "par_seconds"; "speedup"; "verdicts_identical";
      "jsonl_identical";
    ]
    (List.map fst row.Bench_log.fields)

(* ---- malformed input ----------------------------------------------------- *)

let check_error label line =
  match Bench_log.parse_line line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error for %S" label line

let test_malformed_lines_rejected () =
  check_error "not an object" {|[1,2]|};
  check_error "trailing bytes" {|{"a":1} {"b":2}|};
  check_error "unterminated string" {|{"a":"oops|};
  check_error "bad number" {|{"a":1.2.3}|};
  check_error "missing colon" {|{"a" 1}|};
  check_error "non-string table" {|{"table":3,"a":1}|}

let test_null_and_escapes () =
  let row = parse_ok {|{"table":"campaign","note":"a\"b\\c\nd","gap":null}|} in
  Alcotest.(check (option string)) "escape decoding" (Some "a\"b\\c\nd")
    (Bench_log.str_field row "note");
  Alcotest.(check bool) "null decodes" true
    (Bench_log.field row "gap" = Some Bench_log.Null)

(* numerals outside JSON's grammar were read as floats before *)
let test_json_numerals_only () =
  List.iter
    (fun (numeral, expected) ->
      match Bench_log.parse_line ({|{"table":"t","a":|} ^ numeral ^ "}") with
      | Ok _ -> Alcotest.failf "%s accepted" numeral
      | Error msg -> Alcotest.(check string) numeral expected msg)
    [
      ("+1", "unexpected '+' at byte 17");
      (".5", "unexpected '.' at byte 17");
      ("1.", "bad number at byte 19");
    ]

let test_unicode_escapes () =
  let row = parse_ok {|{"table":"t","name":"caf\u00e9"}|} in
  Alcotest.(check (option string)) "\\u00e9 decodes to UTF-8"
    (Some "caf\xc3\xa9")
    (Bench_log.str_field row "name")

(* ---- load: files, blank lines, error position --------------------------- *)

let write_temp lines =
  let path = Filename.temp_file "bench_log" ".json" in
  let oc = open_out_bin path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc;
  path

let test_load_mixed_generations () =
  let path =
    write_temp
      [
        legacy_campaign; ""; legacy_campaign_wide; tagged_checker;
        tagged_simulate; tagged_campaign;
      ]
  in
  let rows =
    match Bench_log.load path with
    | Ok rows -> rows
    | Error msg -> Alcotest.failf "load failed: %s" msg
  in
  Sys.remove path;
  Alcotest.(check int) "blank line skipped, five rows" 5 (List.length rows);
  Alcotest.(check (list string)) "tables across generations"
    [ "campaign"; "campaign"; "checker"; "simulate"; "campaign" ]
    (List.map (fun r -> r.Bench_log.table) rows)

let test_load_reports_line_number () =
  let path = write_temp [ legacy_campaign; {|{"broken|} ] in
  (match Bench_log.load path with
  | Ok _ -> Alcotest.fail "load must fail on the malformed second line"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names file:line" msg)
      true
      (let needle = Filename.basename path ^ ":2:" in
       let n = String.length needle and h = String.length msg in
       let rec at i = i + n <= h && (String.sub msg i n = needle || at (i + 1)) in
       at 0));
  Sys.remove path

(* ---- the repository's own trajectory still decodes ----------------------- *)

let test_repo_trajectory_decodes () =
  let path = Filename.concat (Sys.getcwd ()) "../BENCH_campaign.json" in
  if Sys.file_exists path then
    match Bench_log.load path with
    | Ok rows ->
      Alcotest.(check bool) "trajectory is non-trivial" true
        (List.length rows > 0);
      List.iter
        (fun row ->
          Alcotest.(check bool)
            ("known table: " ^ row.Bench_log.table)
            true
            (List.mem row.Bench_log.table
               [ "campaign"; "checker"; "simulate"; "smc" ]))
        rows
    | Error msg -> Alcotest.failf "repo trajectory no longer decodes: %s" msg

(* ---- render: the uniform tagged writer ----------------------------------- *)

let test_render_round_trip () =
  let line =
    Bench_log.render ~table:"campaign"
      [
        ("unix_time", Json.int 1786205300);
        ("merge_ratio", Json.float 0.23);
        ("stream_jsonl_identical", Json.bool true);
        ("git_rev", Json.string "2300a4f");
      ]
  in
  let row = parse_ok line in
  Alcotest.(check string) "round-trips as tagged campaign" "campaign"
    row.Bench_log.table;
  Alcotest.(check (list string)) "tag rendered first"
    [ "table"; "unix_time"; "merge_ratio"; "stream_jsonl_identical"; "git_rev" ]
    (List.map fst row.Bench_log.fields);
  Alcotest.(check (option int)) "int survives" (Some 1786205300)
    (Bench_log.int_field row "unix_time");
  Alcotest.(check (option bool)) "bool survives" (Some true)
    (Bench_log.bool_field row "stream_jsonl_identical")

let test_render_rejects_duplicate_tag () =
  Alcotest.check_raises "members must not smuggle their own table tag"
    (Invalid_argument
       "Verif.Bench_log.render: members must not contain \"table\"")
    (fun () ->
      ignore (Bench_log.render ~table:"campaign" [ ("table", Json.string "x") ]))

let () =
  Alcotest.run "bench-log"
    [
      ( "legacy",
        [
          Alcotest.test_case "untagged rows rejected" `Quick
            test_untagged_rows_rejected;
        ] );
      ( "tagged",
        [
          Alcotest.test_case "tagged rows decode" `Quick test_tagged_rows;
          Alcotest.test_case "%.6g scientific notation" `Quick
            test_scientific_notation_numbers;
          Alcotest.test_case "accessor kind mismatches" `Quick
            test_accessor_kind_mismatch;
          Alcotest.test_case "field order preserved" `Quick
            test_field_order_preserved;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "malformed lines rejected" `Quick
            test_malformed_lines_rejected;
          Alcotest.test_case "null and string escapes" `Quick
            test_null_and_escapes;
          Alcotest.test_case "JSON numerals only" `Quick
            test_json_numerals_only;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
        ] );
      ( "load",
        [
          Alcotest.test_case "mixed-generation file" `Quick
            test_load_mixed_generations;
          Alcotest.test_case "error carries file:line" `Quick
            test_load_reports_line_number;
          Alcotest.test_case "repo trajectory decodes" `Quick
            test_repo_trajectory_decodes;
        ] );
      ( "render",
        [
          Alcotest.test_case "tagged line round-trips" `Quick
            test_render_round_trip;
          Alcotest.test_case "duplicate tag rejected" `Quick
            test_render_rejects_duplicate_tag;
        ] );
    ]
