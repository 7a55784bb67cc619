type kind =
  | Trigger
  | Sample of { prop : string; value : bool }
  | Verdict_change of { property : string; verdict : Verdict.t }
  | Handshake_armed of { source : string }
  | Test_case_begin of { index : int; op : string }
  | Test_case_end of { index : int; result : string option }
  | Watchdog_fired of { index : int; op : string }
  | Software_crashed of { reason : string }

type event = { seq : int; time_unit : int; kind : kind }

type sink = { on_event : event -> unit; on_close : unit -> unit }

type t = {
  active : bool;
  mutable sinks : sink list;  (* reversed attachment order *)
  first_seq : int;
  mutable seq : int;
  mutable time_source : unit -> int;
}

let zero () = 0

let null =
  {
    active = false;
    sinks = [];
    first_seq = 0;
    seq = 0;
    time_source = zero;
  }

let create ?(first_seq = 0) () =
  {
    active = true;
    sinks = [];
    first_seq;
    seq = first_seq;
    time_source = zero;
  }

let enabled bus = bus.active

let attach bus sink =
  if not bus.active then invalid_arg "Trace.attach: the null bus has no sinks";
  bus.sinks <- sink :: bus.sinks

let set_time_source bus source = bus.time_source <- source

(* top level, not [List.iter] with a closure over [event]: without
   flambda that closure would be allocated for every emitted event *)
let rec deliver event = function
  | [] -> ()
  | sink :: rest ->
    sink.on_event event;
    deliver event rest

let emit bus kind =
  if bus.active then begin
    let seq = bus.seq in
    bus.seq <- seq + 1;
    (* with no sink the event is only counted: no record, no clock read *)
    match bus.sinks with
    | [] -> ()
    | sinks -> deliver { seq; time_unit = bus.time_source (); kind } sinks
  end

let close bus = List.iter (fun sink -> sink.on_close ()) bus.sinks

let events bus = bus.seq - bus.first_seq

module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let kind_label = function
  | Trigger -> "trigger"
  | Sample _ -> "sample"
  | Verdict_change _ -> "verdict_change"
  | Handshake_armed _ -> "handshake_armed"
  | Test_case_begin _ -> "test_case_begin"
  | Test_case_end _ -> "test_case_end"
  | Watchdog_fired _ -> "watchdog_fired"
  | Software_crashed _ -> "software_crashed"

(* Decimal digits straight into the buffer: no [string_of_int] string per
   field. Negative numbers never occur in practice (seq, time units and
   test-case indices count up from 0) and take the plain path. *)
let rec add_digits buffer n =
  if n >= 10 then add_digits buffer (n / 10);
  Buffer.add_char buffer (Char.unsafe_chr (48 + (n mod 10)))

let add_int buffer n =
  if n >= 0 then add_digits buffer n
  else Buffer.add_string buffer (string_of_int n)

(* the last member's string value, then its closing quote and the brace *)
let add_last_string buffer s =
  Json.add_escaped buffer s;
  Buffer.add_string buffer "\"}"

(* The streaming campaign engine renders every event of every job through
   this path, so it appends directly into the caller's buffer and, for
   the events campaigns emit, allocates nothing: one constant prefix per
   event kind (up to the first string value's opening quote), ints as
   digits, strings as they are unless a byte needs escaping. The bytes
   are exactly those of [Json.obj] over the members [seq], [tu], [event]
   and the kind's fields, in that order — [event_to_json] is defined in
   terms of this function, and the goldens pin the format. *)
let event_to_json_into buffer (event : event) =
  Buffer.add_string buffer "{\"seq\":";
  add_int buffer event.seq;
  Buffer.add_string buffer ",\"tu\":";
  add_int buffer event.time_unit;
  match event.kind with
  | Trigger -> Buffer.add_string buffer ",\"event\":\"trigger\"}"
  | Sample { prop; value } ->
    Buffer.add_string buffer ",\"event\":\"sample\",\"prop\":\"";
    Json.add_escaped buffer prop;
    Buffer.add_string buffer
      (if value then "\",\"value\":true}" else "\",\"value\":false}")
  | Verdict_change { property; verdict } ->
    Buffer.add_string buffer
      ",\"event\":\"verdict_change\",\"property\":\"";
    Json.add_escaped buffer property;
    Buffer.add_string buffer "\",\"verdict\":\"";
    add_last_string buffer (Verdict.to_string verdict)
  | Handshake_armed { source } ->
    Buffer.add_string buffer
      ",\"event\":\"handshake_armed\",\"source\":\"";
    add_last_string buffer source
  | Test_case_begin { index; op } ->
    Buffer.add_string buffer
      ",\"event\":\"test_case_begin\",\"index\":";
    add_int buffer index;
    Buffer.add_string buffer ",\"op\":\"";
    add_last_string buffer op
  | Test_case_end { index; result } -> (
    Buffer.add_string buffer ",\"event\":\"test_case_end\",\"index\":";
    add_int buffer index;
    match result with
    | Some result ->
      Buffer.add_string buffer ",\"result\":\"";
      add_last_string buffer result
    | None -> Buffer.add_string buffer ",\"result\":null}")
  | Watchdog_fired { index; op } ->
    Buffer.add_string buffer ",\"event\":\"watchdog_fired\",\"index\":";
    add_int buffer index;
    Buffer.add_string buffer ",\"op\":\"";
    add_last_string buffer op
  | Software_crashed { reason } ->
    Buffer.add_string buffer
      ",\"event\":\"software_crashed\",\"reason\":\"";
    add_last_string buffer reason

let event_to_json (event : event) =
  let buffer = Buffer.create 64 in
  event_to_json_into buffer event;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let event_of_json line =
  match Json.parse line with
  | Error _ as error -> error
  | Ok (Json.Obj members) -> (
    let find key =
      match List.assoc_opt key members with
      | Some v -> v
      | None -> failwith (Printf.sprintf "missing %S" key)
    in
    let str key =
      match find key with
      | Json.Str s -> s
      | _ -> failwith (Printf.sprintf "%S: expected string" key)
    in
    let num key =
      match find key with
      | Json.Int v -> v
      | _ -> failwith (Printf.sprintf "%S: expected int" key)
    in
    let boolean key =
      match find key with
      | Json.Bool b -> b
      | _ -> failwith (Printf.sprintf "%S: expected bool" key)
    in
    let str_opt key =
      match find key with
      | Json.Null -> None
      | Json.Str s -> Some s
      | _ -> failwith (Printf.sprintf "%S: expected string or null" key)
    in
    let verdict key =
      match str key with
      | "true" -> Verdict.True
      | "false" -> Verdict.False
      | "pending" -> Verdict.Pending
      | other -> failwith (Printf.sprintf "unknown verdict %S" other)
    in
    try
      let kind =
        match str "event" with
        | "trigger" -> Trigger
        | "sample" -> Sample { prop = str "prop"; value = boolean "value" }
        | "verdict_change" ->
          Verdict_change
            { property = str "property"; verdict = verdict "verdict" }
        | "handshake_armed" -> Handshake_armed { source = str "source" }
        | "test_case_begin" ->
          Test_case_begin { index = num "index"; op = str "op" }
        | "test_case_end" ->
          Test_case_end { index = num "index"; result = str_opt "result" }
        | "watchdog_fired" ->
          Watchdog_fired { index = num "index"; op = str "op" }
        | "software_crashed" -> Software_crashed { reason = str "reason" }
        | other -> failwith (Printf.sprintf "unknown event %S" other)
      in
      Ok { seq = num "seq"; time_unit = num "tu"; kind }
    with Failure msg -> Error msg)
  | Ok _ -> Error "event is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let memory_sink () =
  let buffered = ref [] in
  let sink =
    { on_event = (fun event -> buffered := event :: !buffered);
      on_close = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !buffered)
