(* Golden-trace regression: small checked-in projections of the jobs=1
   JSONL trace for one EEE property per approach. Monitor state
   numbering, trigger order and trace sequencing all flow through the
   hash-consing and campaign layers, so any change that silently
   renumbers monitor state or reorders the merge shows up here as a
   byte diff. The traces contain only deterministic data (seeded
   stimulus, simulation time units) — no wall clock — so they are
   reproducible across machines.

   Approach 1 triggers on every clock cycle (that is the point of the
   approach), so its full trace runs to megabytes. The checked-in
   golden is therefore a decimated projection: every structural event
   (handshake, verdict change, test-case boundary, watchdog, crash)
   plus every 100th line of the full stream, each line kept verbatim.
   Because the retained lines carry their original [seq] and [tu]
   fields, any insertion, deletion or reordering anywhere in the full
   stream still shifts the projection and fails the byte comparison.

   Regenerate (only when an intentional semantic change invalidates
   them) from the repo root with:

     dune exec test/test_golden_trace.exe -- --generate test/golden *)

module Campaign = Verif.Campaign
module Harness = Eee.Harness

let plan approach =
  {
    Harness.default_plan with
    Harness.ops = [ Eee.Eee_spec.Read ];
    approaches = [ approach ];
    cases_per_op = 2;
    fault_rate = 0.01;
    seed = 23;
  }

let golden_file approach = Printf.sprintf "eee_a%d_read.jsonl" approach

(* one campaign with its merged trace rendered by the JSONL buffer sink *)
let run_traced ~workers plan =
  let buffer = Buffer.create 4096 in
  let summary =
    Harness.run_campaign ~workers
      ~sinks:[ Campaign.jsonl_buffer_sink buffer ]
      plan
  in
  (summary, Buffer.contents buffer)

(* ---- decimated projection ---------------------------------------------- *)

let keep_every = 100

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
  at 0

let bulk line =
  contains line "\"event\":\"trigger\"" || contains line "\"event\":\"sample\""

let project jsonl =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun index line ->
      if line <> "" && ((not (bulk line)) || index mod keep_every = 0) then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end)
    (String.split_on_char '\n' jsonl);
  Buffer.contents buf

(* ---- checks -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_golden ~approach () =
  let golden = read_file (Filename.concat "golden" (golden_file approach)) in
  Alcotest.(check bool) "golden trace is non-trivial" true
    (String.length golden > 0);
  let summary, jsonl = run_traced ~workers:1 (plan approach) in
  Alcotest.(check (list (pair string string))) "no job errors" []
    (Campaign.errors summary);
  Alcotest.(check string) "jobs=1 reproduces the golden bytes" golden
    (project jsonl)

(* the pool path must emit the same bytes as the recorded jobs=1 run *)
let check_golden_pooled () =
  let golden = read_file (Filename.concat "golden" (golden_file 2)) in
  let _, jsonl = run_traced ~workers:2 (plan 2) in
  Alcotest.(check string) "pooled run reproduces the golden bytes" golden
    (project jsonl)

(* every committed line reads back with the trace reader and renders to
   the same bytes *)
let check_golden_lines_round_trip () =
  let lines =
    List.concat_map
      (fun approach ->
        read_file (Filename.concat "golden" (golden_file approach))
        |> String.split_on_char '\n'
        |> List.filter (fun line -> line <> ""))
      [ 1; 2 ]
  in
  Alcotest.(check bool) "goldens hold lines" true (lines <> []);
  List.iter
    (fun line ->
      match Verif.Trace.event_of_json line with
      | Ok event ->
        Alcotest.(check string) "re-rendered bytes" line
          (Verif.Trace.event_to_json event)
      | Error msg -> Alcotest.failf "%S rejected: %s" line msg)
    lines

(* ---- fault injection ----------------------------------------------------- *)

(* enabling the fault-injection hooks with every probability at zero
   must not shift a single PRNG draw: the run stays byte-identical to
   the goldens recorded before the hooks existed *)
let check_golden_zero_rate_faults ~approach () =
  let golden = read_file (Filename.concat "golden" (golden_file approach)) in
  let zero =
    { Smc.Faults.decay = 0.0; power_loss = 0.0; jitter_prob = 0.0;
      jitter_max = 16 }
  in
  let _, jsonl =
    run_traced ~workers:1 { (plan approach) with Harness.faults = zero }
  in
  Alcotest.(check string) "zero-rate faults reproduce the golden bytes" golden
    (project jsonl)

(* The MD5 of the faulty run's projection below as the reference
   interpreter produced it at jobs=1, recorded (4,059 bytes) when the
   derived model could still run on the interpreter; the VM must
   reproduce those bytes. *)
let faulty_interp_md5 = "b34dcfb2fe57268b7a9c248c885a4ef0"

(* a faulty run is replayable: the same (seed, fault config) produces
   byte-identical traces whatever the worker count, and the same bytes
   the interpreter did — each fault class draws from its own substream
   keyed off the session seed, never from shared state *)
let check_faulty_run_determinism () =
  let faults =
    { Smc.Faults.decay = 0.001; power_loss = 0.3; jitter_prob = 0.02;
      jitter_max = 20 }
  in
  let run workers =
    let _, jsonl = run_traced ~workers { (plan 2) with Harness.faults } in
    project jsonl
  in
  let reference = run 1 in
  Alcotest.(check string) "jobs=1 reproduces the interpreter's bytes"
    faulty_interp_md5
    (Digest.to_hex (Digest.string reference));
  Alcotest.(check string) "pooled reproduces the jobs=1 bytes" reference
    (run 2)

(* ---- regeneration -------------------------------------------------------- *)

let generate dir =
  List.iter
    (fun approach ->
      let summary, jsonl = run_traced ~workers:1 (plan approach) in
      (match Campaign.errors summary with
      | [] -> ()
      | errors ->
        List.iter
          (fun (label, message) ->
            Printf.eprintf "job error in %s: %s\n" label message)
          errors;
        exit 1);
      let path = Filename.concat dir (golden_file approach) in
      let oc = open_out_bin path in
      output_string oc (project jsonl);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    [ 1; 2 ]

let () =
  match Sys.argv with
  | [| _; "--generate"; dir |] -> generate dir
  | _ ->
    Alcotest.run "golden-trace"
      [
        ( "eee",
          [
            Alcotest.test_case "approach 1, Read, jobs=1" `Quick
              (check_golden ~approach:1);
            Alcotest.test_case "approach 2, Read, jobs=1" `Quick
              (check_golden ~approach:2);
            Alcotest.test_case "approach 2, Read, pooled" `Quick
              check_golden_pooled;
            Alcotest.test_case "golden lines round-trip" `Quick
              check_golden_lines_round_trip;
          ] );
        ( "faults",
          [
            Alcotest.test_case "approach 1, zero-rate faults" `Quick
              (check_golden_zero_rate_faults ~approach:1);
            Alcotest.test_case "approach 2, zero-rate faults" `Quick
              (check_golden_zero_rate_faults ~approach:2);
            Alcotest.test_case "faulty run, workers x backends" `Quick
              check_faulty_run_determinism;
          ] );
      ]
