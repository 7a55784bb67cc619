type counterexample = {
  violated : string;
  position : Minic.Ast.position;
  input_values : (string * int) list;
}

type verdict =
  | Safe of { complete : bool }
  | Unsafe of counterexample
  | Out_of_time
  | Gave_up of string

type report = {
  result : verdict;
  unwind : int;
  seconds : float;
  encode_seconds : float;
  circuit_nodes : int;
  cnf_vars : int;
  cnf_clauses : int;
  sat_stats : Sat.stats option;
}

let check ?(unwind = 20) ?(timeout_seconds = 60.0) ?(entry = "main") info =
  let started = Unix.gettimeofday () in
  let deadline = started +. timeout_seconds in
  let finish ?(encode_seconds = 0.0) ?(circuit_nodes = 0) ?(cnf_vars = 0)
      ?(cnf_clauses = 0) ?sat_stats result =
    {
      result;
      unwind;
      seconds = Unix.gettimeofday () -. started;
      encode_seconds;
      circuit_nodes;
      cnf_vars;
      cnf_clauses;
      sat_stats;
    }
  in
  if Option.is_none (Minic.Ast.find_func (Minic.Typecheck.program info) entry)
  then finish (Gave_up ("no entry function " ^ entry))
  else match Symexec.encode ~unwind ~deadline info ~entry with
  | exception Symexec.Deadline_reached -> finish Out_of_time
  | exception Symexec.Too_large n ->
    finish (Gave_up (Printf.sprintf "circuit exceeded %d nodes" n))
  | exception Symexec.Unsupported (what, pos) ->
    finish
      (Gave_up (Printf.sprintf "%d:%d: unsupported: %s" pos.Minic.Ast.line
                  pos.Minic.Ast.column what))
  | encoded -> (
    let encode_seconds = Unix.gettimeofday () -. started in
    let graph = encoded.Symexec.graph in
    let circuit_nodes = Aig.num_nodes graph in
    match encoded.Symexec.conditions with
    | [] ->
      finish ~encode_seconds ~circuit_nodes
        (Safe { complete = encoded.Symexec.complete })
    | conditions -> (
      (* query: assumptions /\ (some condition violated) *)
      let any_violation =
        Aig.disj graph (List.map (fun c -> c.Symexec.vc_lit) conditions)
      in
      let query = Aig.and_ graph encoded.Symexec.assumptions any_violation in
      if query = Aig.false_ then
        finish ~encode_seconds ~circuit_nodes
          (Safe { complete = encoded.Symexec.complete })
      else begin
        let roots =
          query :: List.concat_map (fun (_, bv) -> Array.to_list bv)
                     encoded.Symexec.inputs
        in
        let cnf, lit_to_dimacs = Aig.to_cnf graph ~roots in
        let clauses =
          Aig.assert_lit lit_to_dimacs query :: cnf.Aig.clauses
        in
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then
          finish ~encode_seconds ~circuit_nodes ~cnf_vars:cnf.Aig.num_vars
            ~cnf_clauses:(List.length clauses) Out_of_time
        else begin
          let result, stats =
            Sat.solve ~timeout_seconds:remaining ~num_vars:cnf.Aig.num_vars
              clauses
          in
          match result with
          | Sat.Timeout ->
            finish ~encode_seconds ~circuit_nodes ~cnf_vars:cnf.Aig.num_vars
              ~cnf_clauses:(List.length clauses) ~sat_stats:stats Out_of_time
          | Sat.Unsat ->
            finish ~encode_seconds ~circuit_nodes ~cnf_vars:cnf.Aig.num_vars
              ~cnf_clauses:(List.length clauses) ~sat_stats:stats
              (Safe { complete = encoded.Symexec.complete })
          | Sat.Sat model ->
            (* read back the witness *)
            let assignment lit =
              let d = lit_to_dimacs lit in
              if d > 0 then model.(d) else not model.(-d)
            in
            let input_values =
              List.rev_map
                (fun (name, bv) -> (name, Bitvec.eval graph ~assignment bv))
                encoded.Symexec.inputs
            in
            let violated =
              List.find
                (fun c -> Aig.eval graph ~assignment c.Symexec.vc_lit)
                conditions
            in
            finish ~encode_seconds ~circuit_nodes ~cnf_vars:cnf.Aig.num_vars
              ~cnf_clauses:(List.length clauses) ~sat_stats:stats
              (Unsafe
                 {
                   violated = violated.Symexec.vc_name;
                   position = violated.Symexec.vc_pos;
                   input_values;
                 })
        end
      end))
