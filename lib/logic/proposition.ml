type t = {
  p_name : string;
  p_sample : unit -> bool;
  p_reset : (unit -> unit) option;
}

let make name sample = { p_name = name; p_sample = sample; p_reset = None }

let name prop = prop.p_name
let is_true prop = prop.p_sample ()
let is_false prop = not (prop.p_sample ())

let reset prop = match prop.p_reset with None -> () | Some f -> f ()

let const name value = make name (fun () -> value)

let not_ prop =
  make ("!" ^ prop.p_name) (fun () -> not (prop.p_sample ()))

let and_ a b =
  make
    ("(" ^ a.p_name ^ " & " ^ b.p_name ^ ")")
    (fun () -> a.p_sample () && b.p_sample ())

let or_ a b =
  make
    ("(" ^ a.p_name ^ " | " ^ b.p_name ^ ")")
    (fun () -> a.p_sample () || b.p_sample ())

let rose name inner =
  let previous = ref false in
  let sample () =
    let current = is_true inner in
    let result = current && not !previous in
    previous := current;
    result
  in
  {
    p_name = name;
    p_sample = sample;
    p_reset = Some (fun () -> previous := false);
  }

module Table = struct
  type table = (string, t) Hashtbl.t

  let create () : table = Hashtbl.create 16

  let register table prop =
    if Hashtbl.mem table prop.p_name then
      invalid_arg
        (Printf.sprintf "Proposition.Table.register: duplicate %S" prop.p_name)
    else Hashtbl.replace table prop.p_name prop

  let find table name = Hashtbl.find_opt table name

  let find_exn table name =
    match Hashtbl.find_opt table name with
    | Some prop -> prop
    | None ->
      invalid_arg
        (Printf.sprintf "Proposition.Table: unbound proposition %S" name)

  let names table =
    Hashtbl.fold (fun key _ acc -> key :: acc) table []
    |> List.sort String.compare
end
