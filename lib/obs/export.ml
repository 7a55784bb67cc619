(* Renderers are deliberately allocation-light and deterministic: the
   same snapshot always renders to the same bytes (goldens in
   test/test_obs.ml rely on this), so floats go through one canonical
   formatter. *)

let render_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* --- JSONL snapshot ------------------------------------------------------ *)

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (key, value) -> Json.string key ^ ":" ^ Json.string value)
         labels)
  ^ "}"

let metric_to_json (metric : Registry.metric) =
  let base kind =
    Printf.sprintf "\"metric\":%s,\"type\":\"%s\",\"labels\":%s"
      (Json.string metric.name) kind (json_labels metric.labels)
  in
  match metric.value with
  | Registry.Counter_value n ->
    Printf.sprintf "{%s,\"value\":%d}" (base "counter") n
  | Registry.Gauge_value v ->
    Printf.sprintf "{%s,\"value\":%s}" (base "gauge") (render_float v)
  | Registry.Histogram_value { count; sum; buckets } ->
    let buckets =
      String.concat ","
        (List.map
           (fun (le, cumulative) ->
             Printf.sprintf "{\"le\":%s,\"count\":%d}"
               (if Float.is_finite le then render_float le
                else Json.string "+Inf")
               cumulative)
           buckets)
    in
    Printf.sprintf "{%s,\"count\":%d,\"sum\":%s,\"buckets\":[%s]}"
      (base "histogram") count (render_float sum) buckets

let to_jsonl registry =
  let buffer = Buffer.create 1024 in
  List.iter
    (fun metric ->
      Buffer.add_string buffer (metric_to_json metric);
      Buffer.add_char buffer '\n')
    (Registry.snapshot registry);
  Buffer.contents buffer

let write_jsonl path registry =
  let oc = open_out_bin path in
  output_string oc (to_jsonl registry);
  close_out oc

(* --- schema validation --------------------------------------------------- *)

let validate_snapshot_line line =
  let ( let* ) = Result.bind in
  let* json = Json.parse line in
  let* members =
    match json with
    | Json.Obj members -> Ok members
    | _ -> Error "metric line is not a JSON object"
  in
  let field key =
    match List.assoc_opt key members with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing %S field" key)
  in
  let str key =
    let* v = field key in
    match v with
    | Json.Str s -> Ok s
    | _ -> Error (Printf.sprintf "%S must be a string" key)
  in
  let num key =
    let* v = field key in
    match Json.number v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%S must be a number" key)
  in
  let int key =
    let* v = num key in
    if Float.is_integer v && v >= 0.0 then Ok (int_of_float v)
    else Error (Printf.sprintf "%S must be a non-negative integer" key)
  in
  let* name = str "metric" in
  let* () = if name = "" then Error "empty metric name" else Ok () in
  let* labels = field "labels" in
  let* () =
    match labels with
    | Json.Obj members
      when List.for_all
             (fun (_, v) -> match v with Json.Str _ -> true | _ -> false)
             members ->
      Ok ()
    | _ -> Error "\"labels\" must be an object of strings"
  in
  let* kind = str "type" in
  match kind with
  | "counter" ->
    let* _ = int "value" in
    Ok ()
  | "gauge" ->
    let* _ = num "value" in
    Ok ()
  | "histogram" ->
    let* count = int "count" in
    let* _ = num "sum" in
    let* buckets = field "buckets" in
    let* buckets =
      match buckets with
      | Json.Arr (_ :: _ as buckets) -> Ok buckets
      | Json.Arr [] -> Error "histogram needs at least the +Inf bucket"
      | _ -> Error "\"buckets\" must be an array"
    in
    let parse_bucket = function
      | Json.Obj members -> (
        match
          ( List.assoc_opt "le" members,
            Option.bind (List.assoc_opt "count" members) Json.number )
        with
        | Some le, Some c when Float.is_integer c && c >= 0.0 -> (
          match (Json.number le, le) with
          | Some bound, _ -> Ok (bound, int_of_float c)
          | None, Json.Str "+Inf" -> Ok (infinity, int_of_float c)
          | None, _ -> Error "bucket \"le\" must be a number or \"+Inf\"")
        | _ -> Error "bucket needs \"le\" and an integer \"count\"")
      | _ -> Error "bucket is not an object"
    in
    let rec walk previous_le previous_count = function
      | [] -> Ok ()
      | bucket :: rest ->
        let* le, c = parse_bucket bucket in
        if le <= previous_le then Error "bucket bounds must strictly increase"
        else if c < previous_count then Error "bucket counts must be cumulative"
        else if (not (Float.is_finite le)) && rest <> [] then
          Error "only the last bucket may be +Inf"
        else walk le c rest
    in
    let* () = walk neg_infinity 0 buckets in
    let* last_le, last_count =
      match List.rev buckets with
      | last :: _ -> parse_bucket last
      | [] -> Error "empty buckets"
    in
    if Float.is_finite last_le then Error "last bucket must be +Inf"
    else if last_count <> count then
      Error "last bucket count must equal \"count\""
    else Ok ()
  | other -> Error (Printf.sprintf "unknown metric type %S" other)

let validate_snapshot_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    (* [msg] usually reads "PATH: reason"; the caller names the file *)
    let prefix = path ^ ": " in
    Error
      (if String.starts_with ~prefix msg then
         String.sub msg (String.length prefix)
           (String.length msg - String.length prefix)
       else msg)
  | text ->
    let rec go line_no ok = function
      | [] -> if ok = 0 then Error "empty snapshot (no metric lines)" else Ok ok
      | "" :: rest -> go (line_no + 1) ok rest
      | line :: rest -> (
        match validate_snapshot_line line with
        | Ok () -> go (line_no + 1) (ok + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" line_no msg))
    in
    go 1 0 (String.split_on_char '\n' text)
