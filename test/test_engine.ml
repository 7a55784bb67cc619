(* Tests for the verification-session layer: both approaches must yield
   identical per-property verdicts on the same software, trace events must
   round-trip through JSONL, campaign test-case boundaries must be
   published on the bus, and the trace reader must reject what is not one
   JSON object, naming the byte. *)

module Session = Verif.Session
module Result = Verif.Result
module Trace = Verif.Trace

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

(* a small program observable on every backend: raises its initialization
   flag (the approach-1 handshake), counts to 8, then marks completion *)
let source =
  {|
    int flag;
    int x;
    int finished;

    void main(void) {
      int i;
      flag = 1;
      for (i = 0; i < 8; i = i + 1) {
        x = x + 1;
      }
      finished = 1;
    }
  |}

let program_info () = Minic.Typecheck.check (Minic.C_parser.parse source)

let config ?(trace = Trace.null) ~name ~flag () =
  {
    Session.default_config with
    Session.session_name = name;
    propositions =
      [ ("p_done", "finished == 1"); ("p_overflow", "x > 100") ];
    properties =
      [
        ("eventually_done", "F p_done");
        ("never_overflow", "G !p_overflow");
        ("not_yet_done", "G !p_done");
      ];
    bound = Some 100_000;
    flag;
    trace;
  }

let property_names = [ "eventually_done"; "never_overflow"; "not_yet_done" ]

let run_session ?trace ~name ~flag backend =
  let session =
    Session.create ~info:(program_info ())
      (config ?trace ~name ~flag ())
      backend
  in
  Session.boot session;
  Session.run session;
  let result = Session.result session in
  Session.close session;
  result

let test_approaches_agree () =
  let r1 = run_session ~name:"a1" ~flag:(Some "flag") Session.Soc_model in
  let r2 = run_session ~name:"a2" ~flag:None Session.Derived_model in
  Alcotest.(check string) "approach-1 backend name"
    "approach-1 (microprocessor model)" r1.Result.backend;
  Alcotest.(check string) "approach-2 backend name"
    "approach-2 (derived SystemC model)" r2.Result.backend;
  List.iter
    (fun name ->
      check_verdict (name ^ " agrees across approaches")
        (Result.verdict r1 name) (Result.verdict r2 name))
    property_names;
  check_verdict "completion observed" Verdict.True
    (Result.verdict r1 "eventually_done");
  check_verdict "safety violated once done" Verdict.False
    (Result.verdict r1 "not_yet_done");
  check_verdict "overflow guard stays pending" Verdict.Pending
    (Result.verdict r1 "never_overflow");
  Alcotest.(check bool) "approach-1 triggered" true (r1.Result.triggers > 0);
  Alcotest.(check bool) "approach-2 triggered" true (r2.Result.triggers > 0);
  (* final verdicts are stamped in backend time units *)
  Alcotest.(check bool) "first-final time recorded" true
    (Result.first_final_at r1 "eventually_done" <> None
    && Result.first_final_at r2 "eventually_done" <> None);
  Alcotest.(check (option int)) "non-final property has no stamp" None
    (Result.first_final_at r2 "never_overflow")

(* Session.create reads every proposition through check_proposition, so
   a library caller gets the positioned error, not the backend's own *)
let test_propositions_checked () =
  let create ?(info = program_info ()) propositions backend =
    Session.create ~info
      {
        (config ~name:"props" ~flag:None ()) with
        Session.propositions;
        properties = [ ("p", "G ok") ];
      }
      backend
  in
  List.iter
    (fun backend ->
      match create [ ("ok", "nosuch > 1") ] backend with
      | _ -> Alcotest.fail "unknown global accepted"
      | exception Loc.Error e ->
        Alcotest.(check string) "unknown global" "1:1: unknown global nosuch"
          (Loc.to_string e))
    [ Session.Soc_model; Session.Derived_model ];
  (match
     Session.create
       ~compiled:(Mcc.Codegen.compile (program_info ()))
       { Session.default_config with propositions = [ ("ok", "x > 0") ] }
       Session.Soc_model
   with
  | _ -> Alcotest.fail "propositions read without a program"
  | exception Invalid_argument _ -> ());
  let session = create [ ("ok", "x / 0 > 1") ] Session.Derived_model in
  match Session.run session with
  | () -> Alcotest.fail "zero divisor evaluated"
  | exception (Session.Proposition_failed (name, e) as exn) ->
    Alcotest.(check string) "names the proposition" "ok" name;
    Alcotest.(check string) "rendering"
      "proposition ok: 1:3: division by zero" (Printexc.to_string exn);
    Alcotest.(check int) "at the operator" 3 e.Loc.pos.Loc.column

let kind_is_handshake e =
  match e.Trace.kind with Trace.Handshake_armed _ -> true | _ -> false

let kind_is_verdict_change e =
  match e.Trace.kind with Trace.Verdict_change _ -> true | _ -> false

let test_trace_events_and_roundtrip () =
  let bus = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  let _result =
    run_session ~trace:bus ~name:"traced" ~flag:None Session.Derived_model
  in
  let events = events () in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  Alcotest.(check bool) "handshake armed published" true
    (List.exists kind_is_handshake events);
  Alcotest.(check bool) "verdict change published" true
    (List.exists kind_is_verdict_change events);
  (* every event survives the JSONL round trip *)
  List.iter
    (fun event ->
      match Trace.event_of_json (Trace.event_to_json event) with
      | Ok parsed ->
        Alcotest.(check bool) "round trip identical" true (parsed = event)
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    events

(* a bus started at seq k numbers its events k, k+1, ... and counts its
   own events from 0; without a sink it still counts *)
let test_bus_first_seq () =
  let bus = Trace.create ~first_seq:7 () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  Alcotest.(check int) "nothing emitted yet" 0 (Trace.events bus);
  List.iter (Trace.emit bus)
    [ Trace.Trigger; Trace.Sample { prop = "p"; value = true }; Trace.Trigger ];
  Alcotest.(check (list int)) "numbered from the first seq" [ 7; 8; 9 ]
    (List.map (fun e -> e.Trace.seq) (events ()));
  Alcotest.(check int) "events counts the bus's own" 3 (Trace.events bus);
  let quiet = Trace.create ~first_seq:5 () in
  List.iter (Trace.emit quiet) [ Trace.Trigger; Trace.Trigger ];
  Alcotest.(check int) "a bus without sinks still counts" 2
    (Trace.events quiet)

(* ---- the renderer against the member-list definition ------------------ *)

(* Every byte a JSON string may carry, weighted toward the ones the
   renderer must escape: quote, backslash, the named controls, the other
   control bytes, and the bytes >= 0x80 it must pass through. *)
let byte_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t' ]);
        (2, map Char.chr (int_range 0 0x1f));
        (2, map Char.chr (int_range 0x80 0xff));
        (3, map Char.chr (int_range 0 0xff));
        (2, map Char.chr (int_range 0x20 0x7e));
      ])

let string_gen = QCheck.Gen.(string_size ~gen:byte_gen (int_bound 12))

let int_gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0; -1; 9; 10; -10; min_int; max_int ]);
        (3, nat);
        (2, map (fun n -> -n) nat);
        (3, int);
      ])

let kind_gen =
  QCheck.Gen.(
    oneof
      [
        return Trace.Trigger;
        map2 (fun prop value -> Trace.Sample { prop; value }) string_gen bool;
        map2
          (fun property verdict -> Trace.Verdict_change { property; verdict })
          string_gen
          (oneofl Verdict.[ True; False; Pending ]);
        map (fun source -> Trace.Handshake_armed { source }) string_gen;
        map2 (fun index op -> Trace.Test_case_begin { index; op }) int_gen
          string_gen;
        map2
          (fun index result -> Trace.Test_case_end { index; result })
          int_gen (opt string_gen);
        map2 (fun index op -> Trace.Watchdog_fired { index; op }) int_gen
          string_gen;
        map (fun reason -> Trace.Software_crashed { reason }) string_gen;
      ])

let event_gen =
  QCheck.Gen.map3
    (fun seq time_unit kind -> { Trace.seq; time_unit; kind })
    int_gen int_gen kind_gen

(* escape one byte at a time, as JSON asks for *)
let reference_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | '\r' -> "\\r"
         | '\t' -> "\\t"
         | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
         | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

(* the renderer's definition: [Json.obj] over the event's member list *)
let reference_json (event : Trace.event) =
  let str value = "\"" ^ reference_escape value ^ "\"" in
  let fields =
    match event.kind with
    | Trace.Trigger -> []
    | Trace.Sample { prop; value } ->
      [ ("prop", str prop); ("value", Trace.Json.bool value) ]
    | Trace.Verdict_change { property; verdict } ->
      [
        ("property", str property);
        ("verdict", str (Verdict.to_string verdict));
      ]
    | Trace.Handshake_armed { source } -> [ ("source", str source) ]
    | Trace.Test_case_begin { index; op } | Trace.Watchdog_fired { index; op }
      ->
      [ ("index", string_of_int index); ("op", str op) ]
    | Trace.Test_case_end { index; result } ->
      [
        ("index", string_of_int index);
        ("result", match result with Some r -> str r | None -> "null");
      ]
    | Trace.Software_crashed { reason } -> [ ("reason", str reason) ]
  in
  Trace.Json.obj
    ([
       ("seq", string_of_int event.seq);
       ("tu", string_of_int event.time_unit);
       ("event", str (Trace.kind_label event.kind));
     ]
    @ fields)

let qcheck_render_oracle =
  QCheck.Test.make ~count:2000 ~name:"JSONL render == Json.obj reference"
    (QCheck.make ~print:(fun e -> String.escaped (reference_json e)) event_gen)
    (fun event ->
      let rendered = Trace.event_to_json event in
      let expected = reference_json event in
      if rendered <> expected then
        QCheck.Test.fail_reportf "rendered %S" rendered;
      (match Trace.event_of_json rendered with
      | Ok parsed when parsed = event -> ()
      | Ok _ -> QCheck.Test.fail_report "parsed back to another event"
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg);
      true)

let qcheck_escape_oracle =
  QCheck.Test.make ~count:2000 ~name:"Json.escape == per-byte escape"
    (QCheck.make ~print:String.escaped string_gen)
    (fun s ->
      let escaped = Trace.Json.escape s in
      escaped = reference_escape s
      && (escaped <> s || escaped == s (* nothing to escape: no copy *)))

let test_campaign_trace_events () =
  let bus = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  let session =
    Eee.Harness.approach2 ~fault_rate:0.0 ~seed:11 ~chunk_statements:50
      ~trace:bus ()
  in
  Eee.Driver.install_spec session [ Eee.Eee_spec.Read ];
  let config =
    { Eee.Driver.default_config with test_cases = 5; seed = 5;
      watchdog_chunks = 400 }
  in
  let outcome = Eee.Driver.run_campaign session config Eee.Eee_spec.Read in
  Alcotest.(check int) "all cases completed" 5
    (Result.completed_cases outcome);
  let count pred = List.length (List.filter pred (events ())) in
  Alcotest.(check int) "one begin event per measured case" 5
    (count (fun e ->
         match e.Trace.kind with Trace.Test_case_begin _ -> true | _ -> false));
  Alcotest.(check int) "one end event per measured case" 5
    (count (fun e ->
         match e.Trace.kind with Trace.Test_case_end _ -> true | _ -> false));
  Alcotest.(check int) "no watchdog fired" 0
    (count (fun e ->
         match e.Trace.kind with Trace.Watchdog_fired _ -> true | _ -> false))

(* ---- the trace reader ----------------------------------------------------- *)

let trigger = {|{"seq":0,"tu":0,"event":"trigger"}|}

let check_rejected label expected line =
  match Trace.event_of_json line with
  | Ok _ -> Alcotest.failf "%s: %S accepted" label line
  | Error msg -> Alcotest.(check string) label expected msg

let test_reader_rejects_trailing_bytes () =
  check_rejected "garbage after the object" "trailing input at byte 34"
    (trigger ^ "garbage");
  check_rejected "two objects on one line" "trailing input at byte 34"
    (trigger ^ trigger)

let sample_prop line =
  match Trace.event_of_json line with
  | Ok { Trace.kind = Trace.Sample { prop; _ }; _ } -> prop
  | Ok _ -> Alcotest.failf "%S is not a sample" line
  | Error msg -> Alcotest.failf "%S rejected: %s" line msg

let test_reader_decodes_escapes () =
  let sample prop =
    {|{"seq":0,"tu":0,"event":"sample","prop":"|} ^ prop ^ {|","value":true}|}
  in
  Alcotest.(check string) "backspace" "a\bc" (sample_prop (sample {|a\bc|}));
  Alcotest.(check string) "all eight" "\" \\ / \b \012 \n \r \t"
    (sample_prop (sample {|\" \\ \/ \b \f \n \r \t|}));
  Alcotest.(check string) "UTF-8" "\xc3\xa9" (sample_prop (sample {|\u00e9|}))

let test_reader_errors_are_positioned () =
  check_rejected "a minus without digits" "bad number at byte 8"
    {|{"seq":-,"tu":0,"event":"trigger"}|};
  check_rejected "a fraction where an int belongs" "\"seq\": expected int"
    {|{"seq":0.5,"tu":0,"event":"trigger"}|}

let suite =
  [
    Alcotest.test_case "approaches agree" `Quick test_approaches_agree;
    Alcotest.test_case "propositions checked at create" `Quick
      test_propositions_checked;
    Alcotest.test_case "trace events and JSONL round trip" `Quick
      test_trace_events_and_roundtrip;
    Alcotest.test_case "bus numbering from a first seq" `Quick
      test_bus_first_seq;
    QCheck_alcotest.to_alcotest qcheck_render_oracle;
    QCheck_alcotest.to_alcotest qcheck_escape_oracle;
    Alcotest.test_case "campaign trace events" `Quick
      test_campaign_trace_events;
  ]

let reader =
  [
    Alcotest.test_case "trailing bytes rejected" `Quick
      test_reader_rejects_trailing_bytes;
    Alcotest.test_case "every escape decoded" `Quick
      test_reader_decodes_escapes;
    Alcotest.test_case "errors name the byte" `Quick
      test_reader_errors_are_positioned;
  ]

let () = Alcotest.run "engine" [ ("session", suite); ("reader", reader) ]
