exception Division_by_zero

let mask = 0xFFFFFFFF
let sign_bit = 0x80000000

let wrap v =
  let low = v land mask in
  if low land sign_bit <> 0 then low - (mask + 1) else low

let to_unsigned v = v land mask
let of_unsigned v = wrap v

let add a b = wrap (a + b)
let sub a b = wrap (a - b)
let mul a b = wrap (a * b)

let div a b =
  if b = 0 then raise Division_by_zero
  else
    (* OCaml (/) already truncates toward zero, like C99. *)
    wrap (a / b)

let rem a b = if b = 0 then raise Division_by_zero else wrap (a mod b)
let neg a = wrap (-a)
let logand a b = wrap ((a land mask) land (b land mask))
let logor a b = wrap ((a land mask) lor (b land mask))
let logxor a b = wrap ((a land mask) lxor (b land mask))
let lognot a = wrap (lnot a)

let shift_left a amount = wrap ((a land mask) lsl (amount land 31))
let shift_right a amount = wrap (a asr (amount land 31))
let shift_right_logical a amount = wrap ((a land mask) lsr (amount land 31))

let of_bool b = if b then 1 else 0
let to_bool v = v <> 0

let binop (op : Ast.binop) a b =
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> div a b
  | Mod -> rem a b
  | Band -> logand a b
  | Bor -> logor a b
  | Bxor -> logxor a b
  | Shl -> shift_left a b
  | Shr -> shift_right a b
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Land | Lor -> invalid_arg "Value.binop: && and || short-circuit"

let unop (op : Ast.unop) a =
  match op with
  | Neg -> neg a
  | Bitnot -> lognot a
  | Lognot -> of_bool (not (to_bool a))
