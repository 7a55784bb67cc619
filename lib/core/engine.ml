type t = Otf | Explicit | Auto

let all = [ Otf; Explicit; Auto ]

let to_string = function
  | Otf -> "otf"
  | Explicit -> "explicit"
  | Auto -> "auto"

let of_string text =
  match String.lowercase_ascii (String.trim text) with
  | "otf" | "on-the-fly" | "onthefly" -> Some Otf
  | "explicit" -> Some Explicit
  | "auto" -> Some Auto
  | _ -> None

let of_string_exn text =
  match of_string text with
  | Some engine -> engine
  | None ->
    invalid_arg
      (Printf.sprintf
         "Sctc.Engine.of_string_exn: unknown engine %S (expected %s)" text
         (String.concat ", " (List.map to_string all)))

let pp fmt engine = Format.pp_print_string fmt (to_string engine)

let describe = function
  | Otf -> "on-the-fly progression with the lazy transition cache"
  | Explicit -> "pre-synthesized explicit AR-automaton"
  | Auto -> "explicit when synthesis is cheap, on-the-fly otherwise (the default)"

let default = Auto
let auto_max_states = 10_000
