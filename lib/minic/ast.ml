(* Abstract syntax of MiniC, the C subset the embedded software is written
   in.  The subset covers what the paper's case study needs: 32-bit signed
   integers and booleans, fixed-size global arrays, functions, the usual
   statement forms including switch with fall-through, direct memory access
   through unary '*' (the accesses the C2SystemC translator redirects to the
   virtual memory model), and three verification intrinsics parsed as calls:

     nondet(lo, hi)    - constrained external input (stimulus)
     mem_read(addr)    - same as *(addr)
     mem_write(a, v)   - same as *(a) = v

   plus statement intrinsics assert(e), assume(e) and halt(). *)

type position = Loc.pos = { line : int; column : int }

let dummy_pos = { line = 0; column = 0 }

type typ =
  | Tint
  | Tbool
  | Tvoid
  | Tarray of int  (** array of int with static length *)

type unop =
  | Neg  (** arithmetic negation *)
  | Lognot  (** [!] *)
  | Bitnot  (** [~] *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Land  (** short-circuit [&&] *)
  | Lor  (** short-circuit [||] *)

type expr = { edesc : edesc; epos : position }

and edesc =
  | Int_lit of int
  | Bool_lit of bool
  | Var of string
  | Index of string * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Nondet of expr * expr  (** [nondet(lo, hi)], bounds inclusive *)
  | Mem_read of expr  (** [*(addr)] *)

type lvalue =
  | Lvar of string
  | Lindex of string * expr
  | Lmem of expr  (** [*(addr) = ...] *)

type case_label = Case of int | Default

type stmt = { sdesc : sdesc; spos : position }

and sdesc =
  | Block of stmt list
  | Decl of string * typ * expr option  (** local declaration *)
  | Expr of expr  (** expression statement (a call) *)
  | Assign of lvalue * expr
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | Do_while of stmt * expr
  | For of stmt option * expr option * stmt option * stmt
  | Switch of expr * switch_case list
  | Break
  | Continue
  | Return of expr option
  | Assert of expr
  | Assume of expr
  | Halt

and switch_case = { labels : case_label list; body : stmt list }
(** Cases execute with C fall-through semantics: control enters at the
    first matching label and continues into following cases until [Break]. *)

type global = {
  g_name : string;
  g_type : typ;
  g_const : bool;
  g_init : expr option;
  g_pos : position;
}

type func = {
  f_name : string;
  f_ret : typ;
  f_params : (string * typ) list;
  f_body : stmt list;
  f_pos : position;
}

type program = { globals : global list; funcs : func list }

(* Constructors used by program transformations. *)

let expr ?(pos = dummy_pos) edesc = { edesc; epos = pos }
let stmt ?(pos = dummy_pos) sdesc = { sdesc; spos = pos }
let int_lit n = expr (Int_lit n)
let var name = expr (Var name)

let rec iter_stmts_program f program =
  List.iter (fun func -> List.iter (iter_stmt f) func.f_body) program.funcs

and iter_stmt f s =
  f s;
  match s.sdesc with
  | Block body -> List.iter (iter_stmt f) body
  | If (_, then_s, else_s) ->
    iter_stmt f then_s;
    Option.iter (iter_stmt f) else_s
  | While (_, body) | Do_while (body, _) -> iter_stmt f body
  | For (init, _, step, body) ->
    Option.iter (iter_stmt f) init;
    Option.iter (iter_stmt f) step;
    iter_stmt f body
  | Switch (_, cases) ->
    List.iter (fun case -> List.iter (iter_stmt f) case.body) cases
  | Decl _ | Expr _ | Assign _ | Break | Continue | Return _ | Assert _
  | Assume _ | Halt ->
    ()

let find_func program name =
  List.find_opt (fun func -> String.equal func.f_name name) program.funcs

let find_global program name =
  List.find_opt (fun g -> String.equal g.g_name name) program.globals
