open Fltl_lexer

type syntax = [ `Fltl | `Psl | `Auto ]

(* a PSL next[n] builds n nested X nodes *)
let max_next = 10_000

(* PSL-only keywords decide [`Auto]; [until]/[release] are valid in both
   syntaxes and keep their FLTL reading (see the interface). *)
let psl_only = function
  | KW_ALWAYS | KW_NEVER | KW_EVENTUALLY | KW_NEXT -> true
  | _ -> false

let is_psl tokens = List.exists (fun (token, _) -> psl_only token) tokens

(* The token stream ends in [EOF], which no rule consumes. *)
type cursor = {
  tokens : (token * Loc.pos) array;
  mutable next : int;
  psl : bool;
}

let peek c = fst c.tokens.(c.next)
let advance c = c.next <- c.next + 1
let found c = token_to_string (peek c)
let fail c message =
  raise (Loc.Error { pos = snd c.tokens.(c.next); message })

let expect c token =
  if peek c = token then advance c
  else
    fail c
      (Printf.sprintf "expected %s but found %s" (token_to_string token)
         (found c))

(* '[n]' after F, G, U, R (FLTL) or next (PSL) *)
let bound c =
  if peek c <> LBRACKET then None
  else begin
    advance c;
    match peek c with
    | INT n ->
      advance c;
      expect c RBRACKET;
      Some n
    | _ ->
      fail c
        ((if c.psl then "expected integer, found "
          else "expected integer bound, found ")
        ^ found c)
  end

(* PSL's strong suffix: until!, eventually!, next! *)
let strong c = peek c = BANG && (advance c; true)

let rec formula c =
  let rec loop acc =
    match peek c with
    | IFF_OP | KW_IFF ->
      advance c;
      loop (Formula.iff acc (implied c))
    | _ -> acc
  in
  loop (implied c)

and implied c =
  let left = ored c in
  match peek c with
  | ARROW | KW_IMPLIES ->
    advance c;
    Formula.implies left (implied c)
  | _ -> left

and ored c =
  let rec loop acc =
    match peek c with
    | BAR | KW_OR ->
      advance c;
      loop (Formula.or_ acc (anded c))
    | _ -> acc
  in
  loop (anded c)

and anded c =
  let rec loop acc =
    match peek c with
    | AMP | KW_AND ->
      advance c;
      loop (Formula.and_ acc (untiled c))
    | _ -> acc
  in
  loop (untiled c)

and untiled c =
  let left = unary c in
  match (peek c, c.psl) with
  | (KW_U | KW_UNTIL), false ->
    advance c;
    let bound = bound c in
    Formula.until bound left (untiled c)
  | (KW_R | KW_RELEASE), false ->
    advance c;
    let bound = bound c in
    Formula.release bound left (untiled c)
  | KW_UNTIL, true ->
    advance c;
    let strong = strong c in
    let right = untiled c in
    if strong then Formula.until None left right
    else Formula.release None right (Formula.or_ left right)
  | KW_RELEASE, true ->
    advance c;
    Formula.release None left (untiled c)
  | _ -> left

and unary c =
  match (peek c, c.psl) with
  | (BANG | KW_NOT), _ ->
    advance c;
    Formula.not_ (unary c)
  | KW_X, false ->
    advance c;
    Formula.next (unary c)
  | KW_F, false ->
    advance c;
    let bound = bound c in
    Formula.finally bound (unary c)
  | KW_G, false ->
    advance c;
    let bound = bound c in
    Formula.globally bound (unary c)
  | KW_ALWAYS, true ->
    advance c;
    Formula.globally None (unary c)
  | KW_NEVER, true ->
    advance c;
    Formula.globally None (Formula.not_ (unary c))
  | KW_EVENTUALLY, true ->
    (* eventually and eventually! coincide on our monitors *)
    advance c;
    ignore (strong c);
    Formula.finally None (unary c)
  | KW_NEXT, true ->
    advance c;
    ignore (strong c);
    let count_at = c.next + 1 in
    let count = Option.value (bound c) ~default:1 in
    if count > max_next then
      Loc.fail (snd c.tokens.(count_at)) "next count %d is above %d" count
        max_next;
    let rec iterate n acc =
      if n <= 0 then acc else iterate (n - 1) (Formula.next acc)
    in
    iterate count (unary c)
  | _ -> atom c

and atom c =
  match peek c with
  | KW_TRUE ->
    advance c;
    Formula.tru
  | KW_FALSE ->
    advance c;
    Formula.fls
  | IDENT name ->
    advance c;
    Formula.prop name
  | LPAREN ->
    advance c;
    let inner = formula c in
    expect c RPAREN;
    inner
  | _ ->
    fail c
      ("unexpected " ^ found c
      ^ if c.psl then " in PSL formula" else " in formula")

let parse_exn ?(syntax = `Auto) text =
  let tokens = tokenize text in
  let psl =
    match syntax with `Psl -> true | `Fltl -> false | `Auto -> is_psl tokens
  in
  let c = { tokens = Array.of_list tokens; next = 0; psl } in
  let result = formula c in
  if peek c <> EOF then fail c ("trailing input: " ^ found c);
  result
