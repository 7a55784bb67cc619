type lit = int

(* node 0 is the constant false (literal 0), true is literal 1.
   node kinds: And of (lit, lit) | Input of name *)
type node = And of lit * lit | Input of string | Const

type t = {
  mutable nodes : node array;
  mutable size : int;
  cons : (int * int, lit) Hashtbl.t; (* (a, b) with a <= b -> and literal *)
}

let false_ = 0
let true_ = 1

let create () =
  let graph =
    { nodes = Array.make 1024 Const; size = 1; cons = Hashtbl.create 4096 }
  in
  graph.nodes.(0) <- Const;
  graph

let node_of lit = lit lsr 1
let sign_of lit = lit land 1 = 1
let neg lit = lit lxor 1

let add_node graph node =
  if graph.size = Array.length graph.nodes then begin
    let fresh = Array.make (2 * graph.size) Const in
    Array.blit graph.nodes 0 fresh 0 graph.size;
    graph.nodes <- fresh
  end;
  graph.nodes.(graph.size) <- node;
  graph.size <- graph.size + 1;
  (graph.size - 1) * 2

let fresh_input graph name = add_node graph (Input name)

let input_name graph lit =
  match graph.nodes.(node_of lit) with
  | Input name -> Some name
  | And _ | Const -> None

let and_ graph a b =
  if a = false_ || b = false_ then false_
  else if a = true_ then b
  else if b = true_ then a
  else if a = b then a
  else if a = neg b then false_
  else begin
    let key = if a <= b then (a, b) else (b, a) in
    match Hashtbl.find_opt graph.cons key with
    | Some lit -> lit
    | None ->
      let lit = add_node graph (And (fst key, snd key)) in
      Hashtbl.replace graph.cons key lit;
      lit
  end

let or_ graph a b = neg (and_ graph (neg a) (neg b))

let xor_ graph a b =
  (* (a | b) & !(a & b) *)
  and_ graph (or_ graph a b) (neg (and_ graph a b))

let implies graph a b = or_ graph (neg a) b
let iff graph a b = neg (xor_ graph a b)

let mux graph sel a b =
  or_ graph (and_ graph sel a) (and_ graph (neg sel) b)

let conj graph lits = List.fold_left (and_ graph) true_ lits
let disj graph lits = List.fold_left (or_ graph) false_ lits

let num_nodes graph = graph.size

(* ------------------------------------------------------------------ *)

type cnf = { num_vars : int; clauses : int array list }

let to_cnf graph ~roots =
  (* map each needed node to a CNF variable; var 1 is the constant-true
     helper so that constant literals stay expressible *)
  let var_of_node : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  Hashtbl.replace var_of_node 0 1;
  let next_var = ref 1 in
  let clauses = ref [ [| -1 |] ] in
  (* node 0 = false: variable 1 forced false by unit clause [-1] *)
  let rec visit node_id =
    match Hashtbl.find_opt var_of_node node_id with
    | Some var -> var
    | None -> (
      match graph.nodes.(node_id) with
      | Const -> assert false
      | Input _ ->
        incr next_var;
        Hashtbl.replace var_of_node node_id !next_var;
        !next_var
      | And (a, b) ->
        let va = visit (node_of a) in
        let vb = visit (node_of b) in
        incr next_var;
        let v = !next_var in
        Hashtbl.replace var_of_node node_id v;
        let la = if sign_of a then -va else va in
        let lb = if sign_of b then -vb else vb in
        (* v <-> la & lb *)
        clauses := [| -v; la |] :: [| -v; lb |] :: [| v; -la; -lb |]
                   :: !clauses;
        v)
  in
  List.iter (fun root -> ignore (visit (node_of root))) roots;
  let lit_to_dimacs lit =
    let var =
      match Hashtbl.find_opt var_of_node (node_of lit) with
      | Some var -> var
      | None -> invalid_arg "Aig.to_cnf: literal outside encoded cone"
    in
    if sign_of lit then -var else var
  in
  ({ num_vars = !next_var; clauses = !clauses }, lit_to_dimacs)

let assert_lit lit_to_dimacs lit = [| lit_to_dimacs lit |]

let eval graph ~assignment root =
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec value_of_node node_id =
    match Hashtbl.find_opt memo node_id with
    | Some v -> v
    | None ->
      let v =
        match graph.nodes.(node_id) with
        | Const -> false
        | Input _ -> assignment (node_id * 2)
        | And (a, b) -> value_of_lit a && value_of_lit b
      in
      Hashtbl.replace memo node_id v;
      v
  and value_of_lit lit =
    let v = value_of_node (node_of lit) in
    if sign_of lit then not v else v
  in
  value_of_lit root
