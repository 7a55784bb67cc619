type kind = Accept | Reject | Pend

type transition = { guard : Cube.t list; target : int }
type state = { kind : kind; outgoing : transition list }

type t = {
  name : string;
  props : string array;
  initial : int;
  states : state array;
}

let kind_of_ar = function
  | Ar_automaton.Accept -> Accept
  | Ar_automaton.Reject -> Reject
  | Ar_automaton.Pend -> Pend

let of_automaton ~name automaton =
  let width = Ar_automaton.num_props automaton in
  let num_assignments = 1 lsl width in
  let states =
    Array.init (Ar_automaton.num_states automaton) (fun id ->
        let kind = kind_of_ar (Ar_automaton.kind automaton id) in
        match kind with
        | Accept | Reject -> { kind; outgoing = [] }
        | Pend ->
          (* group assignments by successor, then minimize each group *)
          let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
          for mask = 0 to num_assignments - 1 do
            let target = Ar_automaton.next automaton id mask in
            match Hashtbl.find_opt groups target with
            | Some masks -> masks := mask :: !masks
            | None -> Hashtbl.replace groups target (ref [ mask ])
          done;
          let outgoing =
            Hashtbl.fold
              (fun target masks acc ->
                { guard = Cube.minimize ~width !masks; target } :: acc)
              groups []
            |> List.sort (fun a b -> Int.compare a.target b.target)
          in
          { kind; outgoing })
  in
  {
    name;
    props = Ar_automaton.props automaton;
    initial = Ar_automaton.initial automaton;
    states;
  }

let valuation_to_string props mask =
  if Array.length props = 0 then "<no props>"
  else
    String.concat " "
      (List.mapi
         (fun i prop -> Printf.sprintf "%s=%d" prop ((mask lsr i) land 1))
         (Array.to_list props))

let missing_guard ~name ~props state mask =
  invalid_arg
    (Printf.sprintf
       "Il.next(%s): state %d has no guard for valuation %s (mask %d)" name
       state
       (valuation_to_string props mask)
       mask)

let next il state mask =
  let s = il.states.(state) in
  match s.kind with
  | Accept | Reject -> state
  | Pend ->
    let rec search = function
      | [] -> missing_guard ~name:il.name ~props:il.props state mask
      | t :: rest ->
        if List.exists (fun cube -> Cube.matches cube mask) t.guard then
          t.target
        else search rest
    in
    search s.outgoing

let kind_to_string = function
  | Accept -> "accept"
  | Reject -> "reject"
  | Pend -> "pending"

let pp fmt il =
  Format.fprintf fmt "automaton %s {@\n" il.name;
  Format.fprintf fmt "  props: %s;@\n"
    (String.concat ", " (Array.to_list il.props));
  Format.fprintf fmt "  initial: %d;@\n" il.initial;
  Array.iteri
    (fun id state ->
      Format.fprintf fmt "  state %d %s {@\n" id (kind_to_string state.kind);
      List.iter
        (fun t ->
          List.iter
            (fun cube ->
              Format.fprintf fmt "    on %s -> %d;@\n" (Cube.to_string cube)
                t.target)
            t.guard)
        state.outgoing;
      Format.fprintf fmt "  }@\n")
    il.states;
  Format.fprintf fmt "}@\n"

let to_string il = Format.asprintf "%a" pp il

(* Split "cube -> target" at the (space-delimited) arrow; cubes themselves
   may contain '-' as don't-care, so the separator is exactly " -> ". *)
let split_arrow at text =
  let rec find i =
    if i + 4 > String.length text then Loc.fail at "missing ' -> ' in %s" text
    else if String.sub text i 4 = " -> " then i
    else find (i + 1)
  in
  let j = find 0 in
  ( String.trim (String.sub text 0 j),
    String.trim (String.sub text (j + 4) (String.length text - j - 4)) )

(* A small line-oriented parser for the format printed above. *)
let parse text =
  let name = ref "" and props = ref [||] in
  let at_end = Loc.at_offset text (String.length text) in
  let initial = ref (0, at_end) in
  (* id -> kind, guard cubes with their target and line *)
  let states = Hashtbl.create 16 in
  let current = ref None in
  List.iteri
    (fun index raw ->
      let line = String.trim raw in
      let at = Loc.line_start ~line:(index + 1) raw in
      let fail fmt = Loc.fail at fmt in
      let field prefix suffix =
        let n = String.length prefix and m = String.length suffix in
        if String.ends_with ~suffix line && String.length line >= n + m then
          String.sub line n (String.length line - n - m)
        else fail "expected %S at end of %S" suffix line
      in
      let number text =
        match int_of_string_opt (String.trim text) with
        | Some n when n >= 0 -> n
        | Some _ | None -> fail "expected a state number, found %S" text
      in
      if line = "" then ()
      else if line = "}" then current := None
      else if String.starts_with ~prefix:"automaton " line then
        name := String.trim (field "automaton " "{")
      else if String.starts_with ~prefix:"props: " line then
        props :=
          String.split_on_char ',' (field "props: " ";")
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> Array.of_list
      else if String.starts_with ~prefix:"initial: " line then
        initial := (number (field "initial: " ";"), at)
      else if String.starts_with ~prefix:"state " line then begin
        match String.split_on_char ' ' (String.trim (field "state " "{")) with
        | [ id_text; kind_text ] ->
          let id = number id_text in
          let kind =
            match kind_text with
            | "accept" -> Accept
            | "reject" -> Reject
            | "pending" -> Pend
            | other -> fail "unknown state kind %s" other
          in
          Hashtbl.replace states id (kind, []);
          current := Some id
        | _ -> fail "malformed state header: %s" line
      end
      else if String.starts_with ~prefix:"on " line then begin
        match !current with
        | None -> fail "transition outside state block"
        | Some id ->
          let cube_text, target_text = split_arrow at (field "on " ";") in
          if String.length cube_text <> Array.length !props
             || not (String.for_all (String.contains "01-") cube_text)
          then
            fail "expected a guard of 0, 1 or - over %d propositions, found %S"
              (Array.length !props) cube_text;
          let target = number target_text in
          let kind, transitions = Hashtbl.find states id in
          Hashtbl.replace states id
            (kind, (Cube.of_string cube_text, target, at) :: transitions)
      end
      else fail "unrecognized line: %s" line)
    (String.split_on_char '\n' text);
  (* distinct ids below the state count leave no gap, so a large id
     shows up as a missing smaller one, before anything is allocated *)
  let count = Hashtbl.length states in
  let state_array =
    Array.init count (fun id ->
        match Hashtbl.find_opt states id with
        | None -> Loc.fail at_end "missing state %d" id
        | Some (kind, transitions) ->
          (* merge single-cube transitions with equal targets *)
          let grouped : (int, Cube.t list ref) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (cube, target, at) ->
              if target >= count then
                Loc.fail at "unknown target state %d" target;
              match Hashtbl.find_opt grouped target with
              | Some cubes -> cubes := cube :: !cubes
              | None -> Hashtbl.replace grouped target (ref [ cube ]))
            transitions;
          let outgoing =
            Hashtbl.fold
              (fun target cubes acc ->
                { guard = List.rev !cubes; target } :: acc)
              grouped []
            |> List.sort (fun a b -> Int.compare a.target b.target)
          in
          { kind; outgoing })
  in
  let initial, at = !initial in
  if initial >= count then Loc.fail at "unknown initial state %d" initial;
  { name = !name; props = !props; initial; states = state_array }

let num_transitions il =
  Array.fold_left
    (fun acc state ->
      List.fold_left (fun acc t -> acc + List.length t.guard) acc state.outgoing)
    0 il.states
