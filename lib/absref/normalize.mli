(** Normalization into "simple-statement" form for the CFG builder:

    - [for]/[do-while] loops are lowered to [while];
    - call, [nondet] and memory-read subexpressions are hoisted into fresh
      temporary declarations in front of the statement (loop conditions
      are rebuilt inside a [while(true)] with an explicit break, so the
      hoisted code re-executes each iteration);
    - after normalization, conditions and right-hand sides are pure
      (variables, constants, operators). *)

val program : Minic.Typecheck.info -> Minic.Typecheck.info
(** @raise Loc.Error if re-checking the transformed
    program fails (a bug). *)
