(** Recursive-descent parser for MiniC.

    Top level accepts, in any order:
    - [const int NAME = <const-expr>;] — compile-time constants, usable in
      array sizes and case labels;
    - global declarations [int x;], [bool f = true;], [int a[N];];
    - function definitions.

    Statement-position intrinsic calls are recognized and turned into their
    dedicated statement forms: [assert(e);], [assume(e);], [halt();] and
    [mem_write(a, v);]. The sugar [x++;], [x--;], [x += e;], [x -= e;] is
    desugared into plain assignments. A constant expression that divides
    by zero is a parse error.

    These are the front end's only entries; [Loc.catch] turns their
    error into a [result]. *)

val parse : string -> Ast.program
(** @raise Loc.Error at the first malformed token, lexical errors
    included. *)

val parse_expr : string -> Ast.expr
(** Parse a single expression ([--prop] propositions, [Spec_inline]
    predicates, tests).
    @raise Loc.Error as {!parse} does, and on trailing input. *)
