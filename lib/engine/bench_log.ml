(* Bench_log — reader/writer for the BENCH_campaign.json trajectory.

   One flat JSON object per line, appended by bench/main.ml across the
   repository's history, each tagged with its "table" as the first
   member; a row without the tag is rejected. Lines are read with
   Obs.Json, the reader every JSONL file here goes through. *)

module Json = Obs.Json

type value = Number of float | Bool of bool | String of string | Null

type row = { table : string; fields : (string * value) list }

let scalar key = function
  | Json.Null -> Ok Null
  | Json.Bool b -> Ok (Bool b)
  | Json.Int n -> Ok (Number (float_of_int n))
  | Json.Float v -> Ok (Number v)
  | Json.Str s -> Ok (String s)
  | Json.Arr _ | Json.Obj _ -> Error (Printf.sprintf "%S is not a scalar" key)

let parse_line line =
  let ( let* ) = Stdlib.Result.bind in
  let* members =
    match Json.parse line with
    | Ok (Json.Obj members) -> Ok members
    | Ok _ -> Error "row is not a JSON object"
    | Error _ as error -> error
  in
  let rec scalars acc = function
    | [] -> Ok (List.rev acc)
    | (key, json) :: rest ->
      let* value = scalar key json in
      scalars ((key, value) :: acc) rest
  in
  let* fields = scalars [] members in
  match List.assoc_opt "table" fields with
  | Some (String table) -> Ok { table; fields }
  | Some _ -> Error "\"table\" is not a string"
  | None -> Error "missing \"table\" tag"

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
          match parse_line line with
          | Ok row -> go (lineno + 1) (row :: acc)
          | Error msg ->
            Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])

let field row key = List.assoc_opt key row.fields

let number row key =
  match field row key with Some (Number v) -> Some v | _ -> None

let int_field row key =
  match number row key with Some v -> Some (int_of_float v) | None -> None

let bool_field row key =
  match field row key with Some (Bool b) -> Some b | _ -> None

let str_field row key =
  match field row key with Some (String s) -> Some s | _ -> None

let render ~table members =
  if List.mem_assoc "table" members then
    invalid_arg "Verif.Bench_log.render: members must not contain \"table\"";
  Json.obj (("table", Json.string table) :: members)
