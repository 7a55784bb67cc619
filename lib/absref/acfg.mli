(** Abstract control-flow graph over linear commands.

    Functions are inlined structurally (recursion is rejected — like the
    era's BLAST, the checker targets non-recursive control software),
    conditions are lowered to disjunctive edges of linear-atom
    conjunctions, and everything non-linear (bit operations, products of
    variables, memory, nondet) becomes a havoc — a sound
    over-approximation. [assert(c)] adds an edge guarded by [¬c] into the
    distinguished error node. *)

type cmd =
  | Assign of string * Linexpr.t
  | Havoc of string
  | Assume of Linexpr.t list  (** conjunction of atoms [e ≤ 0] *)
  | Skip

type edge = { dst : int; cmd : cmd; pos : Minic.Ast.position }

type t

exception Build_unsupported of string

val build : ?inline_depth:int -> Minic.Typecheck.info -> entry:string -> t
(** The program should be in {!Normalize.program} form. *)

val entry : t -> int
val error : t -> int
val succ : t -> int -> edge list
