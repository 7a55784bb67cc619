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

exception Parse_error of string

(* Split "cube -> target" at the (space-delimited) arrow; cubes themselves
   may contain '-' as don't-care, so the separator is exactly " -> ". *)
let split_arrow text =
  let sep = " -> " in
  let sep_len = String.length sep in
  let rec find i =
    if i + sep_len > String.length text then
      raise (Parse_error ("missing ' -> ' in " ^ text))
    else if String.sub text i sep_len = sep then i
    else find (i + 1)
  in
  let j = find 0 in
  ( String.sub text 0 j,
    String.sub text (j + sep_len) (String.length text - j - sep_len) )

(* A small line-oriented parser for the format printed above. *)
let parse text =
  let fail msg = raise (Parse_error msg) in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun line -> line <> "")
  in
  let name = ref "" in
  let props = ref [||] in
  let initial = ref 0 in
  let states : (int, kind * transition list) Hashtbl.t = Hashtbl.create 16 in
  let current = ref None in
  let strip_suffix suffix s =
    if String.length s >= String.length suffix
       && String.sub s (String.length s - String.length suffix)
            (String.length suffix)
          = suffix
    then String.sub s 0 (String.length s - String.length suffix)
    else fail (Printf.sprintf "expected %S at end of %S" suffix s)
  in
  List.iter
    (fun line ->
      if line = "}" then current := None
      else if String.length line >= 10 && String.sub line 0 10 = "automaton " then
        name := String.trim (strip_suffix "{" (String.sub line 10 (String.length line - 10)))
      else if String.length line >= 7 && String.sub line 0 7 = "props: " then
        props :=
          String.sub line 7 (String.length line - 7)
          |> strip_suffix ";"
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> Array.of_list
      else if String.length line >= 9 && String.sub line 0 9 = "initial: " then
        initial :=
          int_of_string (strip_suffix ";" (String.sub line 9 (String.length line - 9)))
      else if String.length line >= 6 && String.sub line 0 6 = "state " then begin
        let body = strip_suffix "{" (String.sub line 6 (String.length line - 6)) in
        match String.split_on_char ' ' (String.trim body) with
        | [ id_text; kind_text ] ->
          let id = int_of_string id_text in
          let kind =
            match kind_text with
            | "accept" -> Accept
            | "reject" -> Reject
            | "pending" -> Pend
            | other -> fail ("unknown state kind " ^ other)
          in
          Hashtbl.replace states id (kind, []);
          current := Some id
        | _ -> fail ("malformed state header: " ^ line)
      end
      else if String.length line >= 3 && String.sub line 0 3 = "on " then begin
        match !current with
        | None -> fail "transition outside state block"
        | Some id ->
          let body = strip_suffix ";" (String.sub line 3 (String.length line - 3)) in
          let cube_text, target_text = split_arrow body in
          let cube = Cube.of_string (String.trim cube_text) in
          let target = int_of_string (String.trim target_text) in
          let kind, transitions = Hashtbl.find states id in
          Hashtbl.replace states id
            (kind, { guard = [ cube ]; target } :: transitions)
      end
      else fail ("unrecognized line: " ^ line))
    lines;
  let max_id = Hashtbl.fold (fun id _ acc -> max id acc) states (-1) in
  let state_array =
    Array.init (max_id + 1) (fun id ->
        match Hashtbl.find_opt states id with
        | None -> fail (Printf.sprintf "missing state %d" id)
        | Some (kind, transitions) ->
          (* merge single-cube transitions with equal targets *)
          let grouped : (int, Cube.t list ref) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun t ->
              match t.guard with
              | [ cube ] -> (
                match Hashtbl.find_opt grouped t.target with
                | Some cubes -> cubes := cube :: !cubes
                | None -> Hashtbl.replace grouped t.target (ref [ cube ]))
              | _ -> assert false)
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
  { name = !name; props = !props; initial = !initial; states = state_array }

let num_transitions il =
  Array.fold_left
    (fun acc state ->
      List.fold_left (fun acc t -> acc + List.length t.guard) acc state.outgoing)
    0 il.states
