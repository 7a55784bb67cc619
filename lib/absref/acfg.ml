module Ast = Minic.Ast

type cmd =
  | Assign of string * Linexpr.t
  | Havoc of string
  | Assume of Linexpr.t list
  | Skip

type edge = { dst : int; cmd : cmd; pos : Ast.position }

type t = {
  mutable succs : edge list array;
  mutable node_count : int;
  entry_node : int;
  error_node : int;
}

exception Build_unsupported of string

let entry g = g.entry_node
let error g = g.error_node
let succ g n = List.rev g.succs.(n)

let fresh_node g =
  if g.node_count = Array.length g.succs then begin
    let bigger = Array.make (2 * g.node_count) [] in
    Array.blit g.succs 0 bigger 0 g.node_count;
    g.succs <- bigger
  end;
  g.node_count <- g.node_count + 1;
  g.node_count - 1

let add_edge g src edge = g.succs.(src) <- edge :: g.succs.(src)

(* condition -> disjunctive normal form of atom conjunctions; [None]-ish
   unknown parts become unconstrained (true) *)
let rec dnf lookup positive (e : Ast.expr) : Linexpr.t list list =
  let linear a = Linexpr.of_expr lookup a in
  let unknown = [ [] ] (* one unconstrained disjunct *) in
  match e.Ast.edesc with
  | Ast.Bool_lit b -> if b = positive then [ [] ] else []
  | Ast.Unop (Ast.Lognot, inner) -> dnf lookup (not positive) inner
  | Ast.Binop (Ast.Land, a, b) ->
    if positive then product (dnf lookup true a) (dnf lookup true b)
    else dnf lookup false a @ dnf lookup false b
  | Ast.Binop (Ast.Lor, a, b) ->
    if positive then dnf lookup true a @ dnf lookup true b
    else product (dnf lookup false a) (dnf lookup false b)
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne as op), a, b)
    -> (
    match linear a, linear b with
    | Some la, Some lb -> (
      let diff = Linexpr.sub la lb in
      let le x y = Linexpr.normalize (Linexpr.sub x y) in
      ignore le;
      let atom_le = diff (* a - b <= 0 *) in
      let atom_lt = Linexpr.add diff (Linexpr.const 1) (* a - b + 1 <= 0 *) in
      let swap = Linexpr.scale (-1) diff in
      let atom_ge = swap (* b - a <= 0 *) in
      let atom_gt = Linexpr.add swap (Linexpr.const 1) in
      match op, positive with
      | Ast.Lt, true | Ast.Ge, false -> [ [ atom_lt ] ]
      | Ast.Lt, false | Ast.Ge, true -> [ [ atom_ge ] ]
      | Ast.Le, true | Ast.Gt, false -> [ [ atom_le ] ]
      | Ast.Le, false | Ast.Gt, true -> [ [ atom_gt ] ]
      | Ast.Eq, true | Ast.Ne, false -> [ [ atom_le; atom_ge ] ]
      | Ast.Eq, false | Ast.Ne, true -> [ [ atom_lt ]; [ atom_gt ] ]
      | _ -> assert false)
    | _ -> unknown)
  | Ast.Var _ | Ast.Int_lit _ -> (
    (* C truthiness of a linear value *)
    match linear e with
    | Some le ->
      if positive then
        (* e != 0 *)
        [ [ Linexpr.add le (Linexpr.const 1) ];
          [ Linexpr.add (Linexpr.scale (-1) le) (Linexpr.const 1) ] ]
      else [ [ le; Linexpr.scale (-1) le ] ] (* e = 0 *)
    | None -> unknown)
  | _ -> unknown

and product left right =
  List.concat_map (fun l -> List.map (fun r -> l @ r) right) left

(* ------------------------------------------------------------------ *)

type build_ctx = {
  g : t;
  info : Minic.Typecheck.info;
  inline_depth : int;
  mutable instance : int;
}

let lookup_const ctx name = Minic.Typecheck.const_value ctx.info name

(* rename map for locals: source name -> unique name *)
let rec build_stmts ctx rename depth call_stack ~breaks ~node stmts =
  List.fold_left
    (fun (rename, node) stmt ->
      build_stmt ctx rename depth call_stack ~breaks ~node stmt)
    (rename, node) stmts
  |> snd

(* returns (rename', exit node); dead ends return a fresh unreachable node *)
and build_stmt ctx rename depth call_stack ~breaks ~node (s : Ast.stmt) :
    (string * string) list * int =
  let g = ctx.g in
  let pos = s.Ast.spos in
  let resolve name =
    match List.assoc_opt name rename with Some r -> r | None -> name
  in
  let linear e =
    Option.map
      (fun le ->
        (* rewrite vars through the rename map *)
        List.fold_left
          (fun le v ->
            let r = resolve v in
            if String.equal r v then le
            else Linexpr.subst le v (Linexpr.var r))
          le (Linexpr.vars le))
      (Linexpr.of_expr (lookup_const ctx) e)
  in
  let dnf_renamed positive cond =
    dnf (lookup_const ctx) positive cond
    |> List.map
         (List.map (fun atom ->
              List.fold_left
                (fun atom v ->
                  let r = resolve v in
                  if String.equal r v then atom
                  else Linexpr.subst atom v (Linexpr.var r))
                atom (Linexpr.vars atom)))
  in
  let assign_to target e next =
    match e.Ast.edesc with
    | Ast.Call (callee, args) ->
      build_call ctx rename depth call_stack ~node ~pos callee args
        ~result:(Some target) ~next
    | Ast.Nondet (lo, hi) -> (
      add_edge g node { dst = next; cmd = Havoc target; pos };
      (* separate assume node for the range when linear *)
      match linear lo, linear hi with
      | Some llo, Some lhi ->
        (* rebuild: havoc ; assume lo <= t <= hi *)
        g.succs.(node) <- List.tl g.succs.(node);
        let mid = fresh_node g in
        add_edge g node { dst = mid; cmd = Havoc target; pos };
        add_edge g mid
          {
            dst = next;
            cmd =
              Assume
                [
                  Linexpr.sub llo (Linexpr.var target);
                  Linexpr.sub (Linexpr.var target) lhi;
                ];
            pos;
          };
        next
      | _ -> next)
    | _ -> (
      match linear e with
      | Some le ->
        add_edge g node { dst = next; cmd = Assign (target, le); pos };
        next
      | None ->
        add_edge g node { dst = next; cmd = Havoc target; pos };
        next)
  in
  match s.Ast.sdesc with
  | Ast.Block body ->
    (rename, build_stmts ctx rename depth call_stack ~breaks ~node body)
  | Ast.Decl (name, _typ, init) -> (
    ctx.instance <- ctx.instance + 1;
    let unique = Printf.sprintf "%s@%d" name ctx.instance in
    let rename = (name, unique) :: rename in
    match init with
    | None ->
      let next = fresh_node g in
      add_edge g node { dst = next; cmd = Assign (unique, Linexpr.const 0); pos };
      (rename, next)
    | Some e ->
      let next = fresh_node g in
      (rename, (ignore (assign_to unique e next); next)))
  | Ast.Expr e -> (
    match e.Ast.edesc with
    | Ast.Call (callee, args) ->
      let next = fresh_node g in
      ( rename,
        build_call ctx rename depth call_stack ~node ~pos callee args
          ~result:None ~next )
    | _ ->
      (* pure expression statement: no effect *)
      (rename, node))
  | Ast.Assign (lhs, e) -> (
    match lhs with
    | Ast.Lvar name ->
      let next = fresh_node g in
      ignore (assign_to (resolve name) e next);
      (rename, next)
    | Ast.Lindex _ | Ast.Lmem _ ->
      (* arrays and memory are abstracted away entirely *)
      (rename, node))
  | Ast.If (cond, then_s, else_s) ->
    let join = fresh_node g in
    let branch positive stmt_opt =
      List.iter
        (fun conj ->
          let branch_entry = fresh_node g in
          add_edge g node { dst = branch_entry; cmd = Assume conj; pos };
          let exit_node =
            match stmt_opt with
            | None -> branch_entry
            | Some body ->
              snd
                (build_stmt ctx rename depth call_stack ~breaks
                   ~node:branch_entry body)
          in
          add_edge g exit_node { dst = join; cmd = Skip; pos })
        (dnf_renamed positive cond)
    in
    branch true (Some then_s);
    branch false else_s;
    (rename, join)
  | Ast.While (cond, body) ->
    let head = fresh_node g in
    let exit_node = fresh_node g in
    add_edge g node { dst = head; cmd = Skip; pos };
    List.iter
      (fun conj ->
        let body_entry = fresh_node g in
        add_edge g head { dst = body_entry; cmd = Assume conj; pos };
        let body_exit =
          snd
            (build_stmt ctx rename depth call_stack ~breaks:(Some exit_node)
               ~node:body_entry body)
        in
        add_edge g body_exit { dst = head; cmd = Skip; pos })
      (dnf_renamed true cond);
    List.iter
      (fun conj ->
        add_edge g head { dst = exit_node; cmd = Assume conj; pos })
      (dnf_renamed false cond);
    (rename, exit_node)
  | Ast.Do_while _ | Ast.For _ ->
    raise (Build_unsupported "run Normalize.program first")
  | Ast.Switch (scrutinee, cases) ->
    (* lower to if-chains on equality; fallthrough handled by sequencing *)
    let exit_node = fresh_node g in
    let value e = linear e in
    (match value scrutinee with
    | None ->
      (* unknown scrutinee: all cases possible *)
      List.iter
        (fun (case : Ast.switch_case) ->
          let entry_node = fresh_node g in
          add_edge g node { dst = entry_node; cmd = Skip; pos };
          let body_exit =
            build_stmts ctx rename depth call_stack ~breaks:(Some exit_node)
              ~node:entry_node case.Ast.body
          in
          add_edge g body_exit { dst = exit_node; cmd = Skip; pos })
        cases;
      add_edge g node { dst = exit_node; cmd = Skip; pos }
    | Some sv ->
      (* entry points with equality assumptions; fallthrough chains *)
      let entries =
        List.map
          (fun (case : Ast.switch_case) ->
            let entry_node = fresh_node g in
            (case, entry_node))
          cases
      in
      let rec chain = function
        | [] -> ()
        | ((case : Ast.switch_case), entry_node) :: rest ->
          let body_exit =
            build_stmts ctx rename depth call_stack ~breaks:(Some exit_node)
              ~node:entry_node case.Ast.body
          in
          (match rest with
          | (_, next_entry) :: _ ->
            add_edge g body_exit { dst = next_entry; cmd = Skip; pos }
          | [] -> add_edge g body_exit { dst = exit_node; cmd = Skip; pos });
          chain rest
      in
      chain entries;
      let all_case_values =
        List.concat_map
          (fun (case : Ast.switch_case) ->
            List.filter_map
              (function Ast.Case v -> Some v | Ast.Default -> None)
              case.Ast.labels)
          cases
      in
      List.iter
        (fun ((case : Ast.switch_case), entry_node) ->
          List.iter
            (function
              | Ast.Case v ->
                add_edge g node
                  {
                    dst = entry_node;
                    cmd =
                      Assume
                        [
                          Linexpr.sub sv (Linexpr.const v);
                          Linexpr.sub (Linexpr.const v) sv;
                        ];
                    pos;
                  }
              | Ast.Default ->
                (* default: scrutinee differs from every case value *)
                add_edge g node
                  {
                    dst = entry_node;
                    cmd = Skip (* over-approximate the inequality *);
                    pos;
                  })
            case.Ast.labels)
        entries;
      (* no case matches and no default: skip past *)
      if
        not
          (List.exists
             (fun (case : Ast.switch_case) ->
               List.mem Ast.Default case.Ast.labels)
             cases)
      then add_edge g node { dst = exit_node; cmd = Skip; pos };
      ignore all_case_values);
    (rename, exit_node)
  | Ast.Break -> (
    match breaks with
    | Some target ->
      add_edge g node { dst = target; cmd = Skip; pos };
      (rename, fresh_node g)
    | None -> raise (Build_unsupported "break outside loop"))
  | Ast.Continue ->
    raise (Build_unsupported "continue is not supported by the CFG builder")
  | Ast.Return _ | Ast.Halt ->
    (* return value flow is not tracked; end this inline instance *)
    add_edge g node { dst = List.assoc "%exit" rename |> int_of_string; cmd = Skip; pos }
    |> fun () -> (rename, fresh_node g)
  | Ast.Assert cond ->
    List.iter
      (fun conj ->
        add_edge g node { dst = g.error_node; cmd = Assume conj; pos })
      (dnf_renamed false cond);
    let next = fresh_node g in
    List.iter
      (fun conj -> add_edge g node { dst = next; cmd = Assume conj; pos })
      (dnf_renamed true cond);
    (rename, next)
  | Ast.Assume cond ->
    let next = fresh_node g in
    List.iter
      (fun conj -> add_edge g node { dst = next; cmd = Assume conj; pos })
      (dnf_renamed true cond);
    (rename, next)

and build_call ctx rename depth call_stack ~node ~pos callee args ~result ~next =
  let g = ctx.g in
  if List.mem callee call_stack then
    raise (Build_unsupported ("recursive call to " ^ callee));
  if depth >= ctx.inline_depth then
    raise (Build_unsupported "inline depth exceeded");
  let func =
    match Ast.find_func (Minic.Typecheck.program ctx.info) callee with
    | Some f -> f
    | None -> raise (Build_unsupported ("unknown function " ^ callee))
  in
  (* bind arguments to renamed parameters *)
  ctx.instance <- ctx.instance + 1;
  let instance = ctx.instance in
  let param_rename =
    List.map
      (fun (p, _) -> (p, Printf.sprintf "%s@%s%d" p callee instance))
      func.Ast.f_params
  in
  let node = ref node in
  List.iter2
    (fun (_, unique) arg ->
      let mid = fresh_node g in
      let le =
        Option.map
          (fun le ->
            List.fold_left
              (fun le v ->
                match List.assoc_opt v rename with
                | Some r -> Linexpr.subst le v (Linexpr.var r)
                | None -> le)
              le (Linexpr.vars le))
          (Linexpr.of_expr (lookup_const ctx) arg)
      in
      (match le with
      | Some le ->
        add_edge g !node { dst = mid; cmd = Assign (unique, le); pos }
      | None -> add_edge g !node { dst = mid; cmd = Havoc unique; pos });
      node := mid)
    (List.map snd param_rename |> List.map (fun u -> ("", u)))
    args;
  (* return joins at a dedicated exit node *)
  let exit_node = fresh_node g in
  let body_rename = param_rename @ [ ("%exit", string_of_int exit_node) ] in
  let body_exit =
    build_stmts ctx body_rename (depth + 1) (callee :: call_stack)
      ~breaks:None ~node:!node func.Ast.f_body
  in
  add_edge g body_exit { dst = exit_node; cmd = Skip; pos };
  (* result value is not tracked through returns: havoc it *)
  match result with
  | None ->
    add_edge g exit_node { dst = next; cmd = Skip; pos };
    next
  | Some target ->
    add_edge g exit_node { dst = next; cmd = Havoc target; pos };
    next

let build ?(inline_depth = 24) info ~entry =
  let g =
    {
      succs = Array.make 1024 [];
      node_count = 0;
      entry_node = 0;
      error_node = 0;
    }
  in
  let entry_node = fresh_node g in
  let error_node = fresh_node g in
  let g = { g with entry_node; error_node } in
  let ctx = { g; info; inline_depth; instance = 0 } in
  (* initialize globals *)
  let prog = Minic.Typecheck.program info in
  let node = ref entry_node in
  List.iter
    (fun (global : Ast.global) ->
      if not global.Ast.g_const then
        match global.Ast.g_type with
        | Ast.Tarray _ -> ()
        | _ ->
          let value =
            match global.Ast.g_init with
            | None -> Some (Linexpr.const 0)
            | Some e -> Linexpr.of_expr (lookup_const ctx) e
          in
          let next = fresh_node g in
          (match value with
          | Some le ->
            add_edge g !node
              { dst = next; cmd = Assign (global.Ast.g_name, le); pos = global.Ast.g_pos }
          | None ->
            add_edge g !node
              { dst = next; cmd = Havoc global.Ast.g_name; pos = global.Ast.g_pos });
          node := next)
    prog.Ast.globals;
  let final = fresh_node g in
  ignore
    (build_call ctx [] 0 [] ~node:!node ~pos:Ast.dummy_pos entry []
       ~result:None ~next:final);
  g
