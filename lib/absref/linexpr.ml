module SMap = Map.Make (String)

type t = { coeffs : int SMap.t; constant : int }

let zero = { coeffs = SMap.empty; constant = 0 }
let const k = { coeffs = SMap.empty; constant = k }
let var x = { coeffs = SMap.singleton x 1; constant = 0 }

let add a b =
  {
    coeffs =
      SMap.union
        (fun _ c1 c2 -> if c1 + c2 = 0 then None else Some (c1 + c2))
        a.coeffs b.coeffs;
    constant = a.constant + b.constant;
  }

let scale k e =
  if k = 0 then zero
  else
    {
      coeffs = SMap.map (fun c -> k * c) e.coeffs;
      constant = k * e.constant;
    }

let sub a b = add a (scale (-1) b)

let is_const e = if SMap.is_empty e.coeffs then Some e.constant else None
let coeff e x = match SMap.find_opt x e.coeffs with Some c -> c | None -> 0
let vars e = SMap.fold (fun x _ acc -> x :: acc) e.coeffs [] |> List.rev
let mentions e x = SMap.mem x e.coeffs

let subst e x r =
  match SMap.find_opt x e.coeffs with
  | None -> e
  | Some c ->
    let without = { e with coeffs = SMap.remove x e.coeffs } in
    add without (scale c r)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* e <= 0 with all coefficients divisible by g: divide through; the
   constant floor-divides toward the looser side (sound weakening is not
   allowed here, so only divide when exact or tightening is sound:
   e <= 0  <=>  e/g <= 0 when g | coeffs; constant may round down
   (floor), which preserves the integer solution set for <= 0). *)
let normalize e =
  let g = SMap.fold (fun _ c acc -> gcd c acc) e.coeffs 0 in
  if g <= 1 then e
  else
    {
      coeffs = SMap.map (fun c -> c / g) e.coeffs;
      constant =
        (* floor division *)
        (if e.constant >= 0 then (e.constant + g - 1) / g
         else e.constant / g);
    }

let equal a b = a.constant = b.constant && SMap.equal Int.equal a.coeffs b.coeffs

let compare a b =
  let c = Int.compare a.constant b.constant in
  if c <> 0 then c else SMap.compare Int.compare a.coeffs b.coeffs

let negate_atom e = add (scale (-1) e) (const 1)
let atom_true e = match is_const e with Some k -> k <= 0 | None -> false
let atom_false e = match is_const e with Some k -> k > 0 | None -> false

let rec of_expr lookup (e : Minic.Ast.expr) =
  match e.Minic.Ast.edesc with
  | Minic.Ast.Int_lit v -> Some (const v)
  | Minic.Ast.Bool_lit b -> Some (const (if b then 1 else 0))
  | Minic.Ast.Var x -> (
    match lookup x with Some v -> Some (const v) | None -> Some (var x))
  | Minic.Ast.Unop (Minic.Ast.Neg, inner) ->
    Option.map (scale (-1)) (of_expr lookup inner)
  | Minic.Ast.Binop (Minic.Ast.Add, a, b) -> (
    match of_expr lookup a, of_expr lookup b with
    | Some la, Some lb -> Some (add la lb)
    | _ -> None)
  | Minic.Ast.Binop (Minic.Ast.Sub, a, b) -> (
    match of_expr lookup a, of_expr lookup b with
    | Some la, Some lb -> Some (sub la lb)
    | _ -> None)
  | Minic.Ast.Binop (Minic.Ast.Mul, a, b) -> (
    match of_expr lookup a, of_expr lookup b with
    | Some la, Some lb -> (
      match is_const la, is_const lb with
      | Some k, _ -> Some (scale k lb)
      | _, Some k -> Some (scale k la)
      | None, None -> None)
    | _ -> None)
  | Minic.Ast.Unop ((Minic.Ast.Lognot | Minic.Ast.Bitnot), _)
  | Minic.Ast.Binop _ | Minic.Ast.Index _ | Minic.Ast.Call _
  | Minic.Ast.Nondet _ | Minic.Ast.Mem_read _ ->
    None
