type t = {
  layout : (string * int * int) list; (* name, address, size *)
  fname_addr : int;
  ids : (string * int) list;
}

let build info =
  let next = ref Cpu.Memory_map.data_base in
  let alloc size =
    let addr = !next in
    next := !next + size;
    addr
  in
  let layout =
    List.map
      (fun (name, typ) ->
        let size = match typ with Minic.Ast.Tarray n -> n | _ -> 1 in
        (name, alloc size, size))
      (Minic.Typecheck.globals info)
  in
  let layout, fname_addr =
    match List.find_opt (fun (name, _, _) -> name = "fname") layout with
    | Some (_, addr, _) -> (layout, addr)
    | None ->
      let addr = alloc 1 in
      (layout @ [ ("fname", addr, 1) ], addr)
  in
  if !next >= Cpu.Memory_map.data_base + Cpu.Memory_map.data_size then
    invalid_arg "Symtab.build: globals exceed the data segment";
  {
    layout;
    fname_addr;
    ids = Minic.Typecheck.func_ids info;
  }

let find_address symtab name =
  List.find_map
    (fun (n, addr, _) -> if String.equal n name then Some addr else None)
    symtab.layout

let address_of symtab name =
  match find_address symtab name with
  | Some addr -> addr
  | None -> raise Not_found

let size_of symtab name =
  match
    List.find_map
      (fun (n, _, size) -> if String.equal n name then Some size else None)
      symtab.layout
  with
  | Some size -> size
  | None -> raise Not_found

let fname_address symtab = symtab.fname_addr
let func_id symtab name = List.assoc name symtab.ids

let globals symtab = symtab.layout

let data_words symtab =
  List.fold_left (fun acc (_, _, size) -> acc + size) 0 symtab.layout
