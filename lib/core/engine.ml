type t = Otf | Explicit

let all = [ Otf; Explicit ]

let to_string = function Otf -> "otf" | Explicit -> "explicit"

let of_string text =
  match String.lowercase_ascii (String.trim text) with
  | "otf" | "on-the-fly" | "onthefly" -> Some Otf
  | "explicit" -> Some Explicit
  | _ -> None

let of_string_exn text =
  match of_string text with
  | Some engine -> engine
  | None ->
    invalid_arg
      (Printf.sprintf
         "Sctc.Engine.of_string_exn: unknown engine %S (expected %s)" text
         (String.concat ", " (List.map to_string all)))

let default = Otf
let auto_max_states = 10_000
