module Flash = Dataflash.Flash

type t = {
  decay : float;
  power_loss : float;
  jitter_prob : float;
  jitter_max : int;
}

let none = { decay = 0.0; power_loss = 0.0; jitter_prob = 0.0; jitter_max = 0 }

let is_none faults = faults = none

let flash_faults faults =
  { Flash.decay_prob = faults.decay; power_loss_prob = faults.power_loss }

let apply faults config =
  {
    config with
    Verif.Session.flash_faults = flash_faults faults;
    jitter_prob = faults.jitter_prob;
    jitter_max = faults.jitter_max;
  }

(* "decay=P" | "power-loss=P" | "jitter=P:MAX" *)
let parse_knob spec faults =
  let fail offset fmt = Loc.fail (Loc.at_offset spec offset) fmt in
  let prob offset text =
    match float_of_string_opt text with
    | Some p when p >= 0.0 && p <= 1.0 -> p
    | Some _ -> fail offset "probability must be in [0,1]"
    | None -> fail offset "expected a probability, found %S" text
  in
  match String.index_opt spec '=' with
  | None -> fail 0 "expected decay=P, power-loss=P or jitter=P:MAX"
  | Some i -> (
    let value = String.sub spec (i + 1) (String.length spec - i - 1) in
    match String.sub spec 0 i with
    | "decay" -> { faults with decay = prob (i + 1) value }
    | "power-loss" -> { faults with power_loss = prob (i + 1) value }
    | "jitter" -> (
      match String.index_opt value ':' with
      | None -> fail (i + 1) "expected jitter=PROB:MAX_EXTRA_UNITS"
      | Some j -> (
        let jitter_prob = prob (i + 1) (String.sub value 0 j) in
        let extra = String.sub value (j + 1) (String.length value - j - 1) in
        match int_of_string_opt extra with
        | Some m when m >= 1 -> { faults with jitter_prob; jitter_max = m }
        | Some _ | None ->
          fail (i + j + 2) "MAX_EXTRA_UNITS must be an int >= 1"))
    | knob -> fail 0 "unknown fault knob %S" knob)

let to_string faults =
  let parts =
    (if faults.decay > 0.0 then [ Printf.sprintf "decay=%g" faults.decay ]
     else [])
    @ (if faults.power_loss > 0.0 then
         [ Printf.sprintf "power-loss=%g" faults.power_loss ]
       else [])
    @
    if faults.jitter_prob > 0.0 && faults.jitter_max > 0 then
      [ Printf.sprintf "jitter=%g:%d" faults.jitter_prob faults.jitter_max ]
    else []
  in
  match parts with [] -> "none" | parts -> String.concat "," parts
