let var_eq soc ?prop_name name value =
  let prop_name =
    match prop_name with
    | Some n -> n
    | None -> Printf.sprintf "%s_eq_%d" name value
  in
  let addr = Mcc.Symtab.address_of (Soc.symtab soc) name in
  Proposition.make prop_name (fun () -> Soc.read_mem soc addr = value)

let var_pred soc ~prop_name name predicate =
  let addr = Mcc.Symtab.address_of (Soc.symtab soc) name in
  Proposition.make prop_name (fun () -> predicate (Soc.read_mem soc addr))

let in_function soc func =
  let id = Mcc.Symtab.func_id (Soc.symtab soc) func in
  let addr = Mcc.Symtab.fname_address (Soc.symtab soc) in
  Proposition.make ("in_" ^ func) (fun () -> Soc.read_mem soc addr = id)

let register_all checker props =
  List.iter (Sctc.Checker.register_proposition checker) props
