(** Static checks for MiniC programs.

    MiniC follows C's permissive treatment of booleans: [int] and [bool]
    coerce into each other freely (conditions accept both), but structural
    errors are rejected: unknown identifiers, wrong arities, using a [void]
    call as a value, indexing a scalar or using an array without an index,
    assigning to constants or whole arrays, [break]/[continue] outside a
    loop or switch, and duplicate case labels.

    Three of C's static rules make every name resolve lexically, so all
    executors ({!Compile}/{!Vm}, the ISA compiler and the tests'
    {!Interp}) resolve the names of a checked program alike:
    - a declaration is only an element of a statement sequence (a
      function, block or case body, or a [for] init), never the un-braced
      body of [if]/[else]/[while]/[do]/[for], nor a [for] step;
    - a name may not resolve to a local declared directly in a sibling
      case of the same [switch] (code nested inside the declaring case,
      an inner [switch] included, may use it);
    - a global initializer is a constant expression over earlier globals:
      no calls, [nondet], memory access, indexing or array names. It is
      evaluated here, once, in declaration order, with the interpreter's
      short-circuit and 32-bit arithmetic; a zero divisor it reaches is
      an error.

    Checking also assigns every function a stable numeric id (declaration
    order, starting at 1) — the value the instrumentation passes store into
    the [fname] tracking variable so function sequencing can be referenced
    from temporal properties (paper, Section 3.1 step c). *)

type info

val check : Ast.program -> info
(** The front end's only entry; [Loc.catch] turns its error into a
    [result].
    @raise Loc.Error at the first violation found. *)

val program : info -> Ast.program

val func_id : info -> string -> int
(** @raise Not_found for unknown functions. *)

val func_name_of_id : info -> int -> string option

val func_ids : info -> (string * int) list
(** All functions with their ids, in declaration order. *)

val global_type : info -> string -> Ast.typ option

val globals : info -> (string * Ast.typ) list
(** Non-const globals in declaration order (the memory layout order). *)

val const_value : info -> string -> int option

val init_value : info -> string -> int
(** The value of a scalar or const global's initializer (0 without
    one), as evaluated by {!check}.
    @raise Not_found for arrays and unknown names. *)

val vm_program : info -> Bytecode.t option Atomic.t
(** The once-filled slot that holds this program's bytecode: empty
    after {!check}, filled by the first {!Vm.create} and read by every
    later one, so a program checked once is compiled once however many
    sessions run it. Only {!Vm} writes it. *)
