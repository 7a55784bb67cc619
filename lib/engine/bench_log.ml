(* Bench_log — reader/writer for the BENCH_campaign.json trajectory.

   One flat JSON object per line, appended by bench/main.ml across the
   repository's history, each tagged with its "table" as the first
   member; a row without the tag is rejected. Numbers appear both as
   plain integers and in the %.6g scientific notation of Trace.Json.float
   (1.33827e+06), which the core trace parser does not accept — hence
   the dedicated flat parser here. *)

module Json = Sctc.Trace.Json

type value = Number of float | Bool of bool | String of string | Null

type row = { table : string; fields : (string * value) list }

exception Bad of string

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when Char.equal d c -> incr pos
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word =
    let len = String.length word in
    if !pos + len <= n && String.equal (String.sub line !pos len) word then
      pos := !pos + len
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "dangling escape";
          (match line.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "short \\u escape";
            (match int_of_string_opt ("0x" ^ String.sub line (!pos + 1) 4) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if start = !pos then fail "expected a value"
    else
      match float_of_string_opt (String.sub line start (!pos - start)) with
      | Some v -> v
      | None -> fail "bad number"
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some 't' ->
      literal "true";
      Bool true
    | Some 'f' ->
      literal "false";
      Bool false
    | Some 'n' ->
      literal "null";
      Null
    | _ -> Number (parse_number ())
  in
  match
    expect '{';
    skip_ws ();
    let fields =
      if peek () = Some '}' then begin
        incr pos;
        []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((key, value) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((key, value) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after the object";
    fields
  with
  | exception Bad msg -> Error msg
  | fields -> (
    match List.assoc_opt "table" fields with
    | Some (String table) -> Ok { table; fields }
    | Some _ -> Error "\"table\" is not a string"
    | None -> Error "missing \"table\" tag")

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
