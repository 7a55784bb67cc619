(** AST -> bytecode lowering for the {!Vm} backend.

    Lowers a typechecked program to {!Bytecode.t}: variables to slots,
    literals and const globals to the constants pool, control flow to
    jumps, with every observation point of the interpreter — statement
    tick, function entry, virtual memory, nondet — as an explicit
    opcode, so the compiled program replays the interpreter's event
    sequence (and its PC-event timing reference) exactly.

    {!Typecheck} makes every name resolve lexically, so every checked
    program compiles; the initial scalar store holds the global
    initializer values it evaluated. *)

val compile : Typecheck.info -> Bytecode.t
(** @raise Invalid_argument on a program {!Typecheck.check} did not
    accept. *)
