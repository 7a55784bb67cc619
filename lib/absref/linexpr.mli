(** Linear integer expressions and atoms — the predicate language of the
    abstraction-refinement checker. An expression is [Σ cᵢ·xᵢ + k]; an atom
    is the constraint [e ≤ 0]. Negation is exact over the integers:
    [¬(e ≤ 0) = (1 - e ≤ 0)]. *)

type t

val const : int -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

val is_const : t -> int option
val coeff : t -> string -> int
val vars : t -> string list
val mentions : t -> string -> bool

val subst : t -> string -> t -> t
(** [subst e x r] replaces [x] by [r]. *)

val normalize : t -> t
(** Divide by the gcd of all coefficients (keeping integer soundness for
    [e ≤ 0] atoms: the constant is rounded toward the satisfying side). *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Kept with no caller by name: [Set.Make (Linexpr)] in {!Cegar} and
    {!Fourier_motzkin} needs it. *)

(** {2 Atoms: [e ≤ 0]} *)

val negate_atom : t -> t
(** [¬(e ≤ 0)] as an atom: [1 - e ≤ 0]. *)

val atom_true : t -> bool
(** The atom is trivially true (constant ≤ 0). *)

val atom_false : t -> bool

(** [of_expr lookup_const e] linearizes a MiniC expression ([None] when it
    is not linear: products of variables, bit operations, calls, ...). *)
val of_expr : (string -> int option) -> Minic.Ast.expr -> t option
