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

(* The JSONL writer. A line is the bytes of [Json.obj] over the members
   [seq], [tu], [event] and the kind's fields, then a newline; the
   goldens pin the format. Lines are assembled in a block the writer
   owns, which goes to [output] when it is full and on [flush], so a
   line may straddle two blocks, and one longer than the block goes out
   in several pieces, always in order.

   A line is a head, [{"seq":N,"tu":M], and a tail. The head's ints are
   written backward from their decimal length, two digits at a time. A
   sample's tail (83% of a traced campaign's lines) is escaped and
   rendered once per prop string and value, then copied from a cache; a
   trigger's (17%) is a constant; the other kinds, a few per test case,
   are rendered piece by piece with [Json.escape]. Writing a line
   allocates nothing unless an int is negative (no emitter makes one)
   or a string that needs escaping is rendered.

   The cache is keyed on the prop string's identity: every job samples
   the same hash-consed formula atoms, while each session builds its
   own [Sample] blocks. Samples arrive in the checker's slot order, so
   the entry that followed the last sample's entry the last time is
   tried first, and a hit costs one comparison. The cache's tables are
   sized above the minor heap's 256-word limit, so a new writer
   allocates them straight in the major heap and a campaign's minor
   words do not grow with its sinks. *)

let block_size = 65536

let cache_entries = 512

(* the bytes kept for one cached tail: a prop of up to 84 escaped bytes *)
let tail_room = 128

(* [{"seq":], an int of up to 20 bytes, [,"tu":], another int *)
let head_room = 53

type writer = {
  output : Bytes.t -> int -> int -> unit;
  block : Bytes.t;
  mutable fill : int;  (* the bytes of [block] not yet output *)
  props : string array;  (* entry -> its prop string *)
  follows : int array;  (* entry -> the entry sampled after it last time *)
  tails : Bytes.t;  (* slot [2 * entry + value] at [slot * tail_room] *)
  tail_lengths : int array;  (* slot -> its tail's length, -1 for none *)
  mutable used : int;  (* entries installed, up to [cache_entries] *)
  mutable victim : int;  (* the entry the next miss installs into *)
  mutable last : int;  (* the last sample's entry *)
}

(* held by no caller, so never [==] to a sampled prop *)
let vacant = String.make 1 '\000'

let writer output =
  {
    output;
    block = Bytes.create block_size;
    fill = 0;
    props = Array.make cache_entries vacant;
    follows = Array.make cache_entries 0;
    tails = Bytes.create (2 * cache_entries * tail_room);
    tail_lengths = Array.make (2 * cache_entries) (-1);
    used = 0;
    victim = 0;
    last = 0;
  }

let flush w =
  let length = w.fill in
  if length > 0 then begin
    w.fill <- 0;
    w.output w.block 0 length
  end

let reserve w room = if w.fill + room > block_size then flush w

(* [s] at the fill point, into room the caller reserved *)
let put_reserved w s =
  Bytes.unsafe_blit_string s 0 w.block w.fill (String.length s);
  w.fill <- w.fill + String.length s

(* [s] from [pos] on at the fill point, flushing each time the block fills *)
let rec put_from w s pos =
  let length = String.length s - pos and room = block_size - w.fill in
  if length <= room then begin
    Bytes.blit_string s pos w.block w.fill length;
    w.fill <- w.fill + length
  end
  else begin
    Bytes.blit_string s pos w.block w.fill room;
    w.fill <- block_size;
    flush w;
    put_from w s (pos + room)
  end

let put w s = put_from w s 0

(* "00" "01" ... "99" *)
let digit_pairs =
  String.init 200 (fun i ->
      let n = i / 2 in
      Char.unsafe_chr (48 + if i land 1 = 0 then n / 10 else n mod 10))

(* the number of decimal digits of [n >= 0] *)
let rec decimal_length n =
  if n < 10_000 then
    if n < 100 then if n < 10 then 1 else 2 else if n < 1000 then 3 else 4
  else if n < 100_000_000 then
    if n < 1_000_000 then if n < 100_000 then 5 else 6
    else if n < 10_000_000 then 7
    else 8
  else 8 + decimal_length (n / 100_000_000)

(* the digits of [n >= 0], backward from index [last] of [block] *)
let rec put_digits block last n =
  if n >= 100 then begin
    let rest = n / 100 in
    let pair = 2 * (n - (100 * rest)) in
    Bytes.unsafe_set block last (String.unsafe_get digit_pairs (pair + 1));
    Bytes.unsafe_set block (last - 1) (String.unsafe_get digit_pairs pair);
    put_digits block (last - 2) rest
  end
  else if n >= 10 then begin
    Bytes.unsafe_set block last (String.unsafe_get digit_pairs ((2 * n) + 1));
    Bytes.unsafe_set block (last - 1) (String.unsafe_get digit_pairs (2 * n))
  end
  else Bytes.unsafe_set block last (Char.unsafe_chr (48 + n))

(* an int, into reserved room of at least 20 bytes, the length of min_int *)
let put_int_reserved w n =
  if n >= 0 then begin
    let length = decimal_length n in
    put_digits w.block (w.fill + length - 1) n;
    w.fill <- w.fill + length
  end
  else put_reserved w (string_of_int n)

let put_int w n =
  reserve w 20;
  put_int_reserved w n

(* The head's keys go in as one eight-byte store each: the bytes past
   a key lie beyond the fill point, inside the reserved room, so they
   are never output, and the int after the key overwrites them. *)
let key s =
  Bytes.get_int64_le
    (Bytes.of_string (s ^ String.make (8 - String.length s) ' '))
    0

let seq_key = key "{\"seq\":"

let tu_key = key ",\"tu\":"

(* the head, after reserving [room] more for the tail *)
let put_head w (event : event) room =
  reserve w (head_room + room);
  Bytes.set_int64_le w.block w.fill seq_key;
  w.fill <- w.fill + 7;
  put_int_reserved w event.seq;
  Bytes.set_int64_le w.block w.fill tu_key;
  w.fill <- w.fill + 6;
  put_int_reserved w event.time_unit

(* a string member's value, then [after], which starts with its closing
   quote *)
let put_string w s after =
  put w (Json.escape s);
  put w after

(* the entry of [prop] from [entry] on; a prop missing from the cache
   takes the victim entry, whose two tails are dropped *)
let rec scan w prop entry =
  if entry = w.used then begin
    let entry = w.victim in
    w.props.(entry) <- prop;
    w.tail_lengths.(2 * entry) <- -1;
    w.tail_lengths.((2 * entry) + 1) <- -1;
    w.victim <- (entry + 1) mod cache_entries;
    if w.used < cache_entries then w.used <- w.used + 1;
    entry
  end
  else if w.props.(entry) == prop then entry
  else scan w prop (entry + 1)

let tail_slot w prop value =
  let guess = w.follows.(w.last) in
  let entry = if w.props.(guess) == prop then guess else scan w prop 0 in
  w.follows.(w.last) <- entry;
  w.last <- entry;
  (2 * entry) + Bool.to_int value

let sample_prefix = ",\"event\":\"sample\",\"prop\":\""

(* a sample's tail rendered afresh, kept in its slot when it fits *)
let put_new_tail w slot prop value =
  let prop = Json.escape prop in
  let suffix =
    if value then "\",\"value\":true}\n" else "\",\"value\":false}\n"
  in
  let length =
    String.length sample_prefix + String.length prop + String.length suffix
  in
  if length <= tail_room then begin
    reserve w length;
    put_reserved w sample_prefix;
    put_reserved w prop;
    put_reserved w suffix;
    Bytes.blit w.block (w.fill - length) w.tails (slot * tail_room) length;
    w.tail_lengths.(slot) <- length
  end
  else begin
    put w sample_prefix;
    put w prop;
    put w suffix
  end

let trigger_tail = ",\"event\":\"trigger\"}\n"

let write w (event : event) =
  match event.kind with
  | Trigger ->
    put_head w event (String.length trigger_tail);
    put_reserved w trigger_tail
  | Sample { prop; value } ->
    let slot = tail_slot w prop value in
    let length = w.tail_lengths.(slot) in
    if length >= 0 then begin
      put_head w event length;
      Bytes.unsafe_blit w.tails (slot * tail_room) w.block w.fill length;
      w.fill <- w.fill + length
    end
    else begin
      put_head w event 0;
      put_new_tail w slot prop value
    end
  | Verdict_change { property; verdict } ->
    put_head w event 0;
    put w ",\"event\":\"verdict_change\",\"property\":\"";
    put_string w property "\",\"verdict\":\"";
    put_string w (Verdict.to_string verdict) "\"}\n"
  | Handshake_armed { source } ->
    put_head w event 0;
    put w ",\"event\":\"handshake_armed\",\"source\":\"";
    put_string w source "\"}\n"
  | Test_case_begin { index; op } ->
    put_head w event 0;
    put w ",\"event\":\"test_case_begin\",\"index\":";
    put_int w index;
    put w ",\"op\":\"";
    put_string w op "\"}\n"
  | Test_case_end { index; result } -> (
    put_head w event 0;
    put w ",\"event\":\"test_case_end\",\"index\":";
    put_int w index;
    match result with
    | Some result ->
      put w ",\"result\":\"";
      put_string w result "\"}\n"
    | None -> put w ",\"result\":null}\n")
  | Watchdog_fired { index; op } ->
    put_head w event 0;
    put w ",\"event\":\"watchdog_fired\",\"index\":";
    put_int w index;
    put w ",\"op\":\"";
    put_string w op "\"}\n"
  | Software_crashed { reason } ->
    put_head w event 0;
    put w ",\"event\":\"software_crashed\",\"reason\":\"";
    put_string w reason "\"}\n"

(* [event_to_json] writes through one writer per domain *)
let line_writer =
  Domain.DLS.new_key (fun () ->
      let line = Buffer.create 128 in
      (line, writer (Buffer.add_subbytes line)))

let event_to_json event =
  let line, w = Domain.DLS.get line_writer in
  Buffer.clear line;
  write w event;
  flush w;
  Buffer.sub line 0 (Buffer.length line - 1)

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
