(** MiniC pretty-printer for the tests. Emits compilable MiniC source;
    [parse (print p)] yields a structurally identical program, which
    test_minic checks by print idempotence, and the generated-program
    tests print their counterexamples with it. *)

val program_to_string : Minic.Ast.program -> string
