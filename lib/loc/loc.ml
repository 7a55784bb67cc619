type pos = { line : int; column : int }
type error = { pos : pos; message : string }

exception Error of error

let fail pos fmt =
  Printf.ksprintf (fun message -> raise (Error { pos; message })) fmt

let to_string { pos; message } =
  Printf.sprintf "%d:%d: %s" pos.line pos.column message

let catch f =
  match f () with value -> Ok value | exception Error error -> Error error

let int_literal pos digits =
  match int_of_string_opt digits with
  | Some value -> value
  | None -> fail pos "integer literal %s is out of range" digits

let line_start ~line text =
  let column = ref 1 in
  while
    !column <= String.length text
    && String.contains " \t\r\012" text.[!column - 1]
  do
    incr column
  done;
  { line; column = !column }

let at_offset text offset =
  let line = ref 1 and start = ref 0 in
  for i = 0 to min offset (String.length text) - 1 do
    if text.[i] = '\n' then begin
      incr line;
      start := i + 1
    end
  done;
  { line = !line; column = offset - !start + 1 }

let () =
  Printexc.register_printer (function
    | Error error -> Some (to_string error)
    | _ -> None)
