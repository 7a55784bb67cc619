(* Obs.Json — the writer and the one reader behind every JSONL file the
   repository writes and reads back: trace events, metrics snapshots and
   bench rows. *)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* does no byte of [s] from [i] on need escaping? *)
let rec clean s i =
  i >= String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' | '\000' .. '\031' -> false
  | _ -> clean s (i + 1)

let escape s =
  if clean s 0 then s
  else
    let buffer = Buffer.create (String.length s + 8) in
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
      s;
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

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let number = function
  | Int n -> Some (float_of_int n)
  | Float v -> Some v
  | _ -> None

exception Bad of string

(* deep enough for any file written here (metrics lines nest three
   levels), shallow enough that no input can exhaust the stack *)
let max_depth = 512

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let error msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let at c = !pos < n && Char.equal text.[!pos] c in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c msg =
    skip_ws ();
    if not (at c) then error msg;
    incr pos
  in
  let literal word value =
    let len = String.length word in
    if !pos + len > n || String.sub text !pos len <> word then
      error "bad literal";
    pos := !pos + len;
    value
  in
  let hex_digit i =
    match text.[!pos + i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> error "bad \\u escape"
  in
  (* at the 'u' of a \uXXXX escape; leaves [pos] on its last digit *)
  let add_unicode buffer =
    if !pos + 4 >= n then error "short \\u escape";
    let code =
      (hex_digit 1 lsl 12) lor (hex_digit 2 lsl 8) lor (hex_digit 3 lsl 4)
      lor hex_digit 4
    in
    if code >= 0xD800 && code <= 0xDFFF then error "surrogate \\u escape";
    Buffer.add_utf_8_uchar buffer (Uchar.of_int code);
    pos := !pos + 4
  in
  let parse_string () =
    expect '"' "expected '\"'";
    let buffer = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match text.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then error "dangling escape";
          (match text.[!pos] with
          | '"' -> Buffer.add_char buffer '"'
          | '\\' -> Buffer.add_char buffer '\\'
          | '/' -> Buffer.add_char buffer '/'
          | 'b' -> Buffer.add_char buffer '\b'
          | 'f' -> Buffer.add_char buffer '\012'
          | 'n' -> Buffer.add_char buffer '\n'
          | 'r' -> Buffer.add_char buffer '\r'
          | 't' -> Buffer.add_char buffer '\t'
          | 'u' -> add_unicode buffer
          | c -> error ("unknown escape \\" ^ Char.escaped c));
          incr pos;
          go ()
        | '\000' .. '\031' -> error "control byte in string"
        | c ->
          Buffer.add_char buffer c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buffer
  in
  (* -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = first then error "bad number"
    in
    if at '-' then incr pos;
    if at '0' then incr pos else digits ();
    let integral = not (at '.' || at 'e' || at 'E') in
    if at '.' then begin
      incr pos;
      digits ()
    end;
    if at 'e' || at 'E' then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      digits ()
    end;
    let numeral = String.sub text start (!pos - start) in
    match if integral then int_of_string_opt numeral else None with
    | Some i -> Int i
    | None -> Float (float_of_string numeral)
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then error "missing value"
    else
      match text.[!pos] with
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | ('{' | '[') when depth >= max_depth -> error "nesting too deep"
      | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let key = parse_string () in
            expect ':' "expected ':'";
            let acc = (key, parse_value (depth + 1)) :: acc in
            skip_ws ();
            if at ',' then begin
              incr pos;
              members acc
            end
            else if at '}' then begin
              incr pos;
              Obj (List.rev acc)
            end
            else error "expected ',' or '}'"
          in
          members []
      | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let acc = parse_value (depth + 1) :: acc in
            skip_ws ();
            if at ',' then begin
              incr pos;
              items acc
            end
            else if at ']' then begin
              incr pos;
              Arr (List.rev acc)
            end
            else error "expected ',' or ']'"
          in
          items []
      | c -> error ("unexpected '" ^ Char.escaped c ^ "'")
  in
  match
    let value = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing input";
    value
  with
  | value -> Ok value
  | exception Bad msg -> Error msg
