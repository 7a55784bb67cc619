let var_eq model ?prop_name name value =
  let prop_name =
    match prop_name with
    | Some n -> n
    | None -> Printf.sprintf "%s_eq_%d" name value
  in
  let read = Esw_model.member_reader model name in
  Proposition.make prop_name (fun () -> read () = value)

let var_pred model ~prop_name name predicate =
  let read = Esw_model.member_reader model name in
  Proposition.make prop_name (fun () -> predicate (read ()))

let in_function model func =
  let info = (Esw_model.derived model).C2sc.model_info in
  let id = Minic.Typecheck.func_id info func in
  let fname = Esw_model.member_reader model "fname" in
  Proposition.make ("in_" ^ func) (fun () -> fname () = id)
