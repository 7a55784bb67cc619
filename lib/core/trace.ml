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
  mutable seq : int;
  mutable time_source : unit -> int;
  mutable triggers : int;
  mutable samples : int;
  started_at : float;
}

let zero () = 0

let null =
  {
    active = false;
    sinks = [];
    seq = 0;
    time_source = zero;
    triggers = 0;
    samples = 0;
    started_at = 0.0;
  }

let create () =
  {
    active = true;
    sinks = [];
    seq = 0;
    time_source = zero;
    triggers = 0;
    samples = 0;
    started_at = Unix.gettimeofday ();
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
    (match kind with
    | Trigger -> bus.triggers <- bus.triggers + 1
    | Sample _ -> bus.samples <- bus.samples + 1
    | _ -> ());
    let event = { seq = bus.seq; time_unit = bus.time_source (); kind } in
    bus.seq <- bus.seq + 1;
    deliver event bus.sinks
  end

let close bus = List.iter (fun sink -> sink.on_close ()) bus.sinks

let events bus = bus.seq
let triggers bus = bus.triggers
let samples bus = bus.samples

let triggers_per_sec bus =
  if not bus.active then 0.0
  else
    let elapsed = Unix.gettimeofday () -. bus.started_at in
    if elapsed <= 0.0 then 0.0 else float_of_int bus.triggers /. elapsed

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)

module Json = struct
  (* does no byte of [s] from [i] on need escaping? *)
  let rec clean s i =
    i >= String.length s
    ||
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> false
    | _ -> clean s (i + 1)

  (* append [s] escaped: one scan, then the string itself when no byte
     needs escaping (the common case: names, ops, verdicts) *)
  let add_escaped buffer s =
    if clean s 0 then Buffer.add_string buffer s
    else
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buffer "\\\""
          | '\\' -> Buffer.add_string buffer "\\\\"
          | '\n' -> Buffer.add_string buffer "\\n"
          | '\r' -> Buffer.add_string buffer "\\r"
          | '\t' -> Buffer.add_string buffer "\\t"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buffer c)
        s

  let escape s =
    if clean s 0 then s
    else
      let buffer = Buffer.create (String.length s + 8) in
      add_escaped buffer s;
      Buffer.contents buffer

  let string s = "\"" ^ escape s ^ "\""

  let obj members =
    "{"
    ^ String.concat ","
        (List.map (fun (key, value) -> string key ^ ":" ^ value) members)
    ^ "}"

  let int = string_of_int
  let bool b = if b then "true" else "false"

  let float v =
    (* JSON numbers must not be "nan"/"inf" *)
    if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

  let null = "null"
  let option render = function None -> null | Some v -> render v
end

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

let pp_event fmt (event : event) =
  Format.fprintf fmt "[%6d @%-8d] %s" event.seq event.time_unit
    (kind_label event.kind);
  match event.kind with
  | Trigger -> ()
  | Sample { prop; value } -> Format.fprintf fmt " %s=%b" prop value
  | Verdict_change { property; verdict } ->
    Format.fprintf fmt " %s -> %a" property Verdict.pp verdict
  | Handshake_armed { source } -> Format.fprintf fmt " source=%s" source
  | Test_case_begin { index; op } -> Format.fprintf fmt " #%d op=%s" index op
  | Test_case_end { index; result } ->
    Format.fprintf fmt " #%d result=%s" index
      (match result with None -> "<timeout>" | Some r -> r)
  | Watchdog_fired { index; op } -> Format.fprintf fmt " #%d op=%s" index op
  | Software_crashed { reason } -> Format.fprintf fmt " reason=%s" reason

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
(* Parsing (flat objects only — exactly what event_to_json produces)   *)

type json_value = Jstring of string | Jint of int | Jbool of bool | Jnull

let parse_members line =
  let n = String.length line in
  let pos = ref 0 in
  let error msg = failwith msg in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false)
    do incr pos done
  in
  let expect c =
    skip_ws ();
    if !pos >= n || line.[!pos] <> c then
      error (Printf.sprintf "expected '%c' at %d" c !pos);
    incr pos
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then error "dangling escape";
          (match line.[!pos] with
          | '"' -> Buffer.add_char buffer '"'
          | '\\' -> Buffer.add_char buffer '\\'
          | '/' -> Buffer.add_char buffer '/'
          | 'n' -> Buffer.add_char buffer '\n'
          | 'r' -> Buffer.add_char buffer '\r'
          | 't' -> Buffer.add_char buffer '\t'
          | 'u' ->
            if !pos + 4 >= n then error "short \\u escape";
            let code = int_of_string ("0x" ^ String.sub line (!pos + 1) 4) in
            if code < 256 then Buffer.add_char buffer (Char.chr code)
            else Buffer.add_char buffer '?';
            pos := !pos + 4
          | c -> error (Printf.sprintf "unknown escape \\%c" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char buffer c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buffer
  in
  let parse_value () =
    skip_ws ();
    if !pos >= n then error "missing value"
    else
      match line.[!pos] with
      | '"' -> Jstring (parse_string ())
      | 't' when !pos + 4 <= n && String.sub line !pos 4 = "true" ->
        pos := !pos + 4;
        Jbool true
      | 'f' when !pos + 5 <= n && String.sub line !pos 5 = "false" ->
        pos := !pos + 5;
        Jbool false
      | 'n' when !pos + 4 <= n && String.sub line !pos 4 = "null" ->
        pos := !pos + 4;
        Jnull
      | '-' | '0' .. '9' ->
        let start = !pos in
        if line.[!pos] = '-' then incr pos;
        while
          !pos < n && (match line.[!pos] with '0' .. '9' -> true | _ -> false)
        do incr pos done;
        Jint (int_of_string (String.sub line start (!pos - start)))
      | c -> error (Printf.sprintf "unexpected '%c'" c)
  in
  expect '{';
  skip_ws ();
  let members = ref [] in
  if !pos < n && line.[!pos] = '}' then incr pos
  else begin
    let rec member () =
      let key = (skip_ws (); parse_string ()) in
      expect ':';
      let value = parse_value () in
      members := (key, value) :: !members;
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then begin
        incr pos;
        member ()
      end
      else expect '}'
    in
    member ()
  end;
  List.rev !members

let event_of_json line =
  try
    let members = parse_members line in
    let find key =
      match List.assoc_opt key members with
      | Some v -> v
      | None -> failwith (Printf.sprintf "missing %S" key)
    in
    let str key =
      match find key with
      | Jstring s -> s
      | _ -> failwith (Printf.sprintf "%S: expected string" key)
    in
    let num key =
      match find key with
      | Jint v -> v
      | _ -> failwith (Printf.sprintf "%S: expected int" key)
    in
    let boolean key =
      match find key with
      | Jbool b -> b
      | _ -> failwith (Printf.sprintf "%S: expected bool" key)
    in
    let str_opt key =
      match find key with
      | Jnull -> None
      | Jstring s -> Some s
      | _ -> failwith (Printf.sprintf "%S: expected string or null" key)
    in
    let verdict key =
      match str key with
      | "true" -> Verdict.True
      | "false" -> Verdict.False
      | "pending" -> Verdict.Pending
      | other -> failwith (Printf.sprintf "unknown verdict %S" other)
    in
    let kind =
      match str "event" with
      | "trigger" -> Trigger
      | "sample" -> Sample { prop = str "prop"; value = boolean "value" }
      | "verdict_change" ->
        Verdict_change { property = str "property"; verdict = verdict "verdict" }
      | "handshake_armed" -> Handshake_armed { source = str "source" }
      | "test_case_begin" ->
        Test_case_begin { index = num "index"; op = str "op" }
      | "test_case_end" ->
        Test_case_end { index = num "index"; result = str_opt "result" }
      | "watchdog_fired" -> Watchdog_fired { index = num "index"; op = str "op" }
      | "software_crashed" -> Software_crashed { reason = str "reason" }
      | other -> failwith (Printf.sprintf "unknown event %S" other)
    in
    Ok { seq = num "seq"; time_unit = num "tu"; kind }
  with Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let log_sink fmt =
  {
    on_event = (fun event -> Format.fprintf fmt "%a@." pp_event event);
    on_close = (fun () -> Format.pp_print_flush fmt ());
  }

let jsonl_sink channel =
  {
    on_event =
      (fun event ->
        output_string channel (event_to_json event);
        output_char channel '\n');
    on_close = (fun () -> flush channel);
  }

let jsonl_file path =
  let channel = open_out path in
  let inner = jsonl_sink channel in
  {
    inner with
    on_close =
      (fun () ->
        inner.on_close ();
        close_out channel);
  }

let memory_sink () =
  let buffered = ref [] in
  let sink =
    { on_event = (fun event -> buffered := event :: !buffered);
      on_close = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !buffered)
