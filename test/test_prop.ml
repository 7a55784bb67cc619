(* Sctc.Prop is the one property grammar; these tests pin its contract:
   the grammar identity table below, the auto-detection rule (PSL
   keywords flip, until/release do not), the positioned error, the
   checker's [Auto] text path, and totality on mutated property texts. *)

module Prop = Sctc.Prop

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let formula =
  Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (Formula.to_string f))
    Formula.equal

(* ---- grammar identity ---------------------------------------------------- *)

(* What the two separate FLTL and PSL grammars (and [`Auto] dispatching
   between them) gave for each text, under [`Fltl], [`Psl] and [`Auto]:
   [Formula.to_string] of an accepted text, line, column and message of
   a rejected one. Recorded before the two grammars were merged, in a
   fresh process parsing the texts in this order. The texts are every
   EEE property with and without a bound, the property texts of
   test_logic, test_prop, test_sctc, the cram files and the examples,
   and mixed-syntax and malformed cases. [Formula.to_string] orders
   [&]/[|] operands by hash-consing id, so [parsed] parses the texts in
   the same order, under all three syntaxes at once, before anything
   else in this suite is parsed; each equivalence test then checks one
   column. *)
let grammar_table = [
  ("G (read_called -> F (read_ret_eee_ok | read_ret_eee_busy | read_ret_eee_err_init | read_ret_eee_err_access | read_ret_eee_err_no_instance | read_ret_eee_err_parameter))",
   Ok "G (F (read_ret_eee_ok | (read_ret_eee_busy | (read_ret_eee_err_init | (read_ret_eee_err_access | (read_ret_eee_err_no_instance | read_ret_eee_err_parameter))))) | !read_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (read_ret_eee_ok | (read_ret_eee_busy | (read_ret_eee_err_init | (read_ret_eee_err_access | (read_ret_eee_err_no_instance | read_ret_eee_err_parameter))))) | !read_called)");
  ("G (read_called -> F[1000] (read_ret_eee_ok | read_ret_eee_busy | read_ret_eee_err_init | read_ret_eee_err_access | read_ret_eee_err_no_instance | read_ret_eee_err_parameter))",
   Ok "G (!read_called | F[1000] (read_ret_eee_ok | (read_ret_eee_busy | (read_ret_eee_err_init | (read_ret_eee_err_access | (read_ret_eee_err_no_instance | read_ret_eee_err_parameter))))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!read_called | F[1000] (read_ret_eee_ok | (read_ret_eee_busy | (read_ret_eee_err_init | (read_ret_eee_err_access | (read_ret_eee_err_no_instance | read_ret_eee_err_parameter))))))");
  ("G (write_called -> F (write_ret_eee_ok | write_ret_eee_busy | write_ret_eee_err_init | write_ret_eee_err_access | write_ret_eee_err_pool_full | write_ret_eee_err_parameter))",
   Ok "G (F (write_ret_eee_ok | (write_ret_eee_busy | (write_ret_eee_err_init | (write_ret_eee_err_access | (write_ret_eee_err_pool_full | write_ret_eee_err_parameter))))) | !write_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (write_ret_eee_ok | (write_ret_eee_busy | (write_ret_eee_err_init | (write_ret_eee_err_access | (write_ret_eee_err_pool_full | write_ret_eee_err_parameter))))) | !write_called)");
  ("G (write_called -> F[1000] (write_ret_eee_ok | write_ret_eee_busy | write_ret_eee_err_init | write_ret_eee_err_access | write_ret_eee_err_pool_full | write_ret_eee_err_parameter))",
   Ok "G (!write_called | F[1000] (write_ret_eee_ok | (write_ret_eee_busy | (write_ret_eee_err_init | (write_ret_eee_err_access | (write_ret_eee_err_pool_full | write_ret_eee_err_parameter))))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!write_called | F[1000] (write_ret_eee_ok | (write_ret_eee_busy | (write_ret_eee_err_init | (write_ret_eee_err_access | (write_ret_eee_err_pool_full | write_ret_eee_err_parameter))))))");
  ("G (startup1_called -> F (startup1_ret_eee_ok | startup1_ret_eee_busy | startup1_ret_eee_err_access | startup1_ret_eee_err_not_formatted))",
   Ok "G (F (startup1_ret_eee_ok | (startup1_ret_eee_busy | (startup1_ret_eee_err_access | startup1_ret_eee_err_not_formatted))) | !startup1_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (startup1_ret_eee_ok | (startup1_ret_eee_busy | (startup1_ret_eee_err_access | startup1_ret_eee_err_not_formatted))) | !startup1_called)");
  ("G (startup1_called -> F[1000] (startup1_ret_eee_ok | startup1_ret_eee_busy | startup1_ret_eee_err_access | startup1_ret_eee_err_not_formatted))",
   Ok "G (!startup1_called | F[1000] (startup1_ret_eee_ok | (startup1_ret_eee_busy | (startup1_ret_eee_err_access | startup1_ret_eee_err_not_formatted))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!startup1_called | F[1000] (startup1_ret_eee_ok | (startup1_ret_eee_busy | (startup1_ret_eee_err_access | startup1_ret_eee_err_not_formatted))))");
  ("G (startup2_called -> F (startup2_ret_eee_ok | startup2_ret_eee_busy | startup2_ret_eee_err_access | startup2_ret_eee_err_init))",
   Ok "G (F (startup2_ret_eee_ok | (startup2_ret_eee_busy | (startup2_ret_eee_err_access | startup2_ret_eee_err_init))) | !startup2_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (startup2_ret_eee_ok | (startup2_ret_eee_busy | (startup2_ret_eee_err_access | startup2_ret_eee_err_init))) | !startup2_called)");
  ("G (startup2_called -> F[1000] (startup2_ret_eee_ok | startup2_ret_eee_busy | startup2_ret_eee_err_access | startup2_ret_eee_err_init))",
   Ok "G (!startup2_called | F[1000] (startup2_ret_eee_ok | (startup2_ret_eee_busy | (startup2_ret_eee_err_access | startup2_ret_eee_err_init))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!startup2_called | F[1000] (startup2_ret_eee_ok | (startup2_ret_eee_busy | (startup2_ret_eee_err_access | startup2_ret_eee_err_init))))");
  ("G (format_called -> F (format_ret_eee_ok | format_ret_eee_busy | format_ret_eee_err_access))",
   Ok "G (F (format_ret_eee_ok | (format_ret_eee_busy | format_ret_eee_err_access)) | !format_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (format_ret_eee_ok | (format_ret_eee_busy | format_ret_eee_err_access)) | !format_called)");
  ("G (format_called -> F[1000] (format_ret_eee_ok | format_ret_eee_busy | format_ret_eee_err_access))",
   Ok "G (!format_called | F[1000] (format_ret_eee_ok | (format_ret_eee_busy | format_ret_eee_err_access)))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!format_called | F[1000] (format_ret_eee_ok | (format_ret_eee_busy | format_ret_eee_err_access)))");
  ("G (prepare_called -> F (prepare_ret_eee_ok | prepare_ret_eee_busy | prepare_ret_eee_err_access | prepare_ret_eee_err_init))",
   Ok "G (F (prepare_ret_eee_ok | (prepare_ret_eee_busy | (prepare_ret_eee_err_access | prepare_ret_eee_err_init))) | !prepare_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (prepare_ret_eee_ok | (prepare_ret_eee_busy | (prepare_ret_eee_err_access | prepare_ret_eee_err_init))) | !prepare_called)");
  ("G (prepare_called -> F[1000] (prepare_ret_eee_ok | prepare_ret_eee_busy | prepare_ret_eee_err_access | prepare_ret_eee_err_init))",
   Ok "G (!prepare_called | F[1000] (prepare_ret_eee_ok | (prepare_ret_eee_busy | (prepare_ret_eee_err_access | prepare_ret_eee_err_init))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!prepare_called | F[1000] (prepare_ret_eee_ok | (prepare_ret_eee_busy | (prepare_ret_eee_err_access | prepare_ret_eee_err_init))))");
  ("G (refresh_called -> F (refresh_ret_eee_ok | refresh_ret_eee_busy | refresh_ret_eee_err_access | refresh_ret_eee_err_init))",
   Ok "G (F (refresh_ret_eee_ok | (refresh_ret_eee_busy | (refresh_ret_eee_err_access | refresh_ret_eee_err_init))) | !refresh_called)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F (refresh_ret_eee_ok | (refresh_ret_eee_busy | (refresh_ret_eee_err_access | refresh_ret_eee_err_init))) | !refresh_called)");
  ("G (refresh_called -> F[1000] (refresh_ret_eee_ok | refresh_ret_eee_busy | refresh_ret_eee_err_access | refresh_ret_eee_err_init))",
   Ok "G (!refresh_called | F[1000] (refresh_ret_eee_ok | (refresh_ret_eee_busy | (refresh_ret_eee_err_access | refresh_ret_eee_err_init))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!refresh_called | F[1000] (refresh_ret_eee_ok | (refresh_ret_eee_busy | (refresh_ret_eee_err_access | refresh_ret_eee_err_init))))");
  ("!(G (a -> F[2] b) & (c U d))",
   Ok "!(G (F[2] b | !a) & c U d)",
   Error (1, 3, "unexpected 'G' in PSL formula"),
   Ok "!(G (F[2] b | !a) & c U d)");
  ("!a",
   Ok "!a",
   Ok "!a",
   Ok "!a");
  ("not a",
   Ok "!a",
   Ok "!a",
   Ok "!a");
  ("(a & !b) -> c",
   Ok "c | !(a & !b)",
   Ok "c | !(a & !b)",
   Ok "c | !(a & !b)");
  ("F !a",
   Ok "F !a",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F !a");
  ("F a",
   Ok "F a",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F a");
  ("F p",
   Ok "F p",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F p");
  ("F (Read -> F[1000] (EEE_OK | EEE_BUSY | EEE_ERROR))",
   Ok "F (F[1000] (EEE_OK | (EEE_BUSY | EEE_ERROR)) | !Read)",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F (F[1000] (EEE_OK | (EEE_BUSY | EEE_ERROR)) | !Read)");
  ("F[10] a & G[3] (b U[7] c)",
   Ok "F[10] a & G[3] (b U[7] c)",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F[10] a & G[3] (b U[7] c)");
  ("G !p",
   Ok "G !p",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G !p");
  ("G (/* block */ a -> // line\n F b)",
   Ok "G (!a | F b)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!a | F b)");
  ("G (a -> ",
   Error (1, 9, "unexpected end of input in formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (1, 9, "unexpected end of input in formula"));
  ("G (a -> F b)",
   Ok "G (!a | F b)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!a | F b)");
  ("G (a -> F[2] b)",
   Ok "G (F[2] b | !a)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F[2] b | !a)");
  ("G (a -> F[5] (b | c)) & X a",
   Ok "G (!a | F[5] (b | c)) & X a",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!a | F[5] (b | c)) & X a");
  ("G (req -> F ack)",
   Ok "G (F ack | !req)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F ack | !req)");
  ("G (req -> F[2] ack)",
   Ok "G (!req | F[2] ack)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!req | F[2] ack)");
  ("G a",
   Ok "G a",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G a");
  ("G p",
   Ok "G p",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G p");
  ("X X X p",
   Ok "X X X p",
   Error (1, 1, "unexpected 'X' in PSL formula"),
   Ok "X X X p");
  ("X a",
   Ok "X a",
   Error (1, 1, "unexpected 'X' in PSL formula"),
   Ok "X a");
  ("X p",
   Ok "X p",
   Error (1, 1, "unexpected 'X' in PSL formula"),
   Ok "X p");
  ("a & !b | c",
   Ok "c | a & !b",
   Ok "c | a & !b",
   Ok "c | a & !b");
  ("a & (!b | c)",
   Ok "a & (c | !b)",
   Ok "a & (c | !b)",
   Ok "a & (c | !b)");
  ("a & X b",
   Ok "a & X b",
   Error (1, 5, "unexpected 'X' in PSL formula"),
   Ok "a & X b");
  ("a && b",
   Ok "a & b",
   Ok "a & b",
   Ok "a & b");
  ("a -> b -> c",
   Ok "!a | (c | !b)",
   Ok "!a | (c | !b)",
   Ok "!a | (c | !b)");
  ("a -> b | c & d",
   Ok "b | (!a | c & d)",
   Ok "b | (!a | c & d)",
   Ok "b | (!a | c & d)");
  ("a @ b",
   Error (1, 3, "illegal character '@'"),
   Error (1, 3, "illegal character '@'"),
   Error (1, 3, "illegal character '@'"));
  ("a U[5] b",
   Ok "a U[5] b",
   Error (1, 3, "trailing input: 'U'"),
   Ok "a U[5] b");
  ("a and b",
   Ok "a & b",
   Ok "a & b",
   Ok "a & b");
  ("a and not b implies c",
   Ok "c | !(a & !b)",
   Ok "c | !(a & !b)",
   Ok "c | !(a & !b)");
  ("a b",
   Error (1, 3, "trailing input: identifier \"b\""),
   Error (1, 3, "trailing input: identifier \"b\""),
   Error (1, 3, "trailing input: identifier \"b\""));
  ("a or b",
   Ok "a | b",
   Ok "a | b",
   Ok "a | b");
  ("a || b",
   Ok "a | b",
   Ok "a | b",
   Ok "a | b");
  ("a",
   Ok "a",
   Ok "a",
   Ok "a");
  ("b",
   Ok "b",
   Ok "b",
   Ok "b");
  ("p",
   Ok "p",
   Ok "p",
   Ok "p");
  ("q",
   Ok "q",
   Ok "q",
   Ok "q");
  ("always (req implies eventually! ack)",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G (F ack | !req)",
   Ok "G (F ack | !req)");
  ("always ok",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G ok",
   Ok "G ok");
  ("always p",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G p",
   Ok "G p");
  ("always",
   Error (1, 1, "unexpected 'always' in formula"),
   Error (1, 7, "unexpected end of input in PSL formula"),
   Error (1, 7, "unexpected end of input in PSL formula"));
  ("eventually! p",
   Error (1, 1, "unexpected 'eventually' in formula"),
   Ok "F p",
   Ok "F p");
  ("eventually!",
   Error (1, 1, "unexpected 'eventually' in formula"),
   Error (1, 12, "unexpected end of input in PSL formula"),
   Error (1, 12, "unexpected end of input in PSL formula"));
  ("never p",
   Error (1, 1, "unexpected 'never' in formula"),
   Ok "G !p",
   Ok "G !p");
  ("never",
   Error (1, 1, "unexpected 'never' in formula"),
   Error (1, 6, "unexpected end of input in PSL formula"),
   Error (1, 6, "unexpected end of input in PSL formula"));
  ("next p",
   Error (1, 1, "unexpected 'next' in formula"),
   Ok "X p",
   Ok "X p");
  ("next",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 5, "unexpected end of input in PSL formula"),
   Error (1, 5, "unexpected end of input in PSL formula"));
  ("next[3] p",
   Error (1, 1, "unexpected 'next' in formula"),
   Ok "X X X p",
   Ok "X X X p");
  ("next[3]",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 8, "unexpected end of input in PSL formula"),
   Error (1, 8, "unexpected end of input in PSL formula"));
  ("p R q",
   Ok "p R q",
   Error (1, 3, "trailing input: 'R'"),
   Ok "p R q");
  ("p U q",
   Ok "p U q",
   Error (1, 3, "trailing input: 'U'"),
   Ok "p U q");
  ("p release q",
   Ok "p R q",
   Ok "p R q",
   Ok "p R q");
  ("p until q",
   Ok "p U q",
   Ok "q R (p | q)",
   Ok "p U q");
  ("p until! q",
   Ok "p U !q",
   Ok "p U q",
   Ok "p U !q");
  ("release",
   Error (1, 1, "unexpected 'release' in formula"),
   Error (1, 1, "unexpected 'release' in PSL formula"),
   Error (1, 1, "unexpected 'release' in formula"));
  ("until!",
   Error (1, 1, "unexpected 'until' in formula"),
   Error (1, 1, "unexpected 'until' in PSL formula"),
   Error (1, 1, "unexpected 'until' in formula"));
  ("true U q",
   Ok "F q",
   Error (1, 6, "trailing input: 'U'"),
   Ok "F q");
  ("F q",
   Ok "F q",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F q");
  ("G (a -> F[40] b)",
   Ok "G (!a | F[40] b)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!a | F[40] b)");
  ("a R b",
   Ok "a R b",
   Error (1, 3, "trailing input: 'R'"),
   Ok "a R b");
  ("!a & (b | X c)",
   Ok "!a & (b | X c)",
   Error (1, 11, "unexpected 'X' in PSL formula"),
   Ok "!a & (b | X c)");
  ("always (req -> eventually! ack)",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G (F ack | !req)",
   Ok "G (F ack | !req)");
  ("never fault",
   Error (1, 1, "unexpected 'never' in formula"),
   Ok "G !fault",
   Ok "G !fault");
  ("next[3] done",
   Error (1, 1, "unexpected 'next' in formula"),
   Ok "X X X done",
   Ok "X X X done");
  ("a until! b",
   Ok "a U !b",
   Ok "a U b",
   Ok "a U !b");
  ("a until b",
   Ok "a U b",
   Ok "b R (a | b)",
   Ok "a U b");
  ("a release b",
   Ok "a R b",
   Ok "a R b",
   Ok "a R b");
  ("always (a -> b)",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G (b | !a)",
   Ok "G (b | !a)");
  ("G (a -> F[5] b)",
   Ok "G (!a | F[5] b)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!a | F[5] b)");
  ("always (a -> eventually! b)",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G (!a | F b)",
   Ok "G (!a | F b)");
  ("G (",
   Error (1, 4, "unexpected end of input in formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (1, 4, "unexpected end of input in formula"));
  ("G (p -> F q)",
   Ok "G (!p | F q)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!p | F q)");
  ("always (p -> eventually! q)",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G (!p | F q)",
   Ok "G (!p | F q)");
  ("G (p -> ",
   Error (1, 9, "unexpected end of input in formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (1, 9, "unexpected end of input in formula"));
  ("F high",
   Ok "F high",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F high");
  ("F[2017] a",
   Ok "F[2017] a",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F[2017] a");
  ("G (a -> F missing)",
   Ok "G (!a | F missing)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!a | F missing)");
  ("G initialized",
   Ok "G initialized",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G initialized");
  ("F[300000] a",
   Ok "F[300000] a",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F[300000] a");
  ("G (big -> F[250000] ok)",
   Ok "G (F[250000] ok | !big)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F[250000] ok | !big)");
  ("G ok",
   Ok "G ok",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G ok");
  ("F ok",
   Ok "F ok",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F ok");
  ("F done",
   Ok "F done",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F done");
  ("G (p0 | p1 | p2 | p3 | p4 | p5 | p6 | p7 | p8 | p9 | p10 | p11 | p12 | p13 | p14 | p15 | p16)",
   Ok "G (p0 | (p1 | (p2 | (p3 | (p4 | (p5 | (p6 | (p7 | (p8 | (p9 | (p10 | (p11 | (p12 | (p13 | (p14 | (p15 | p16))))))))))))))))",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (p0 | (p1 | (p2 | (p3 | (p4 | (p5 | (p6 | (p7 | (p8 | (p9 | (p10 | (p11 | (p12 | (p13 | (p14 | (p15 | p16))))))))))))))))");
  ("G (braking -> F[400] !engaged)",
   Ok "G (F[400] !engaged | !braking)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F[400] !engaged | !braking)");
  ("G speed_sane",
   Ok "G speed_sane",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G speed_sane");
  ("F engaged",
   Ok "F engaged",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F engaged");
  ("G (green -> !(X red))",
   Ok "G (!X red | !green)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!X red | !green)");
  ("G (red -> F[40] green)",
   Ok "G (F[40] green | !red)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (F[40] green | !red)");
  ("F red",
   Ok "F red",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F red");
  ("G (req -> F[2] ack)",
   Ok "G (!req | F[2] ack)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!req | F[2] ack)");
  ("G (req -> F[100] ack)",
   Ok "G (!req | F[100] ack)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!req | F[100] ack)");
  ("G (req -> F[1000] ack)",
   Ok "G (!req | F[1000] ack)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!req | F[1000] ack)");
  ("G (red -> F[40] !red)",
   Ok "G (!red | F[40] !red)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (!red | F[40] !red)");
  ("always a U b",
   Error (1, 1, "unexpected 'always' in formula"),
   Error (1, 10, "trailing input: 'U'"),
   Error (1, 10, "trailing input: 'U'"));
  ("G a & always b",
   Error (1, 7, "unexpected 'always' in formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"));
  ("a until ! b",
   Ok "a U !b",
   Ok "a U b",
   Ok "a U !b");
  ("a until !b",
   Ok "a U !b",
   Ok "a U b",
   Ok "a U !b");
  ("always a until b",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "b R (b | G a)",
   Ok "b R (b | G a)");
  ("G (a until b)",
   Ok "G (a U b)",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G (a U b)");
  ("next X a",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 6, "unexpected 'X' in PSL formula"),
   Error (1, 6, "unexpected 'X' in PSL formula"));
  ("X next a",
   Error (1, 3, "unexpected 'next' in formula"),
   Error (1, 1, "unexpected 'X' in PSL formula"),
   Error (1, 1, "unexpected 'X' in PSL formula"));
  ("a U b until c",
   Ok "a U b U c",
   Error (1, 3, "trailing input: 'U'"),
   Ok "a U b U c");
  ("never a R b",
   Error (1, 1, "unexpected 'never' in formula"),
   Error (1, 9, "trailing input: 'R'"),
   Error (1, 9, "trailing input: 'R'"));
  ("next[2] F[3] a",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 9, "unexpected 'F' in PSL formula"),
   Error (1, 9, "unexpected 'F' in PSL formula"));
  ("F[2] next a",
   Error (1, 6, "unexpected 'next' in formula"),
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Error (1, 1, "unexpected 'F' in PSL formula"));
  ("a release[3] b",
   Ok "a R[3] b",
   Error (1, 10, "unexpected '[' in PSL formula"),
   Ok "a R[3] b");
  ("a until[3] b",
   Ok "a U[3] b",
   Error (1, 8, "unexpected '[' in PSL formula"),
   Ok "a U[3] b");
  ("a U! b",
   Ok "a U !b",
   Error (1, 3, "trailing input: 'U'"),
   Ok "a U !b");
  ("a R[2] b",
   Ok "a R[2] b",
   Error (1, 3, "trailing input: 'R'"),
   Ok "a R[2] b");
  ("always (a -> next[0] b)",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G (b | !a)",
   Ok "G (b | !a)");
  ("next[0] a",
   Error (1, 1, "unexpected 'next' in formula"),
   Ok "a",
   Ok "a");
  ("G[0] a",
   Ok "G[0] a",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G[0] a");
  ("eventually a",
   Error (1, 1, "unexpected 'eventually' in formula"),
   Ok "F a",
   Ok "F a");
  ("eventually a until b",
   Error (1, 1, "unexpected 'eventually' in formula"),
   Ok "b R (b | F a)",
   Ok "b R (b | F a)");
  ("not always a",
   Error (1, 5, "unexpected 'always' in formula"),
   Ok "!G a",
   Ok "!G a");
  ("always not a",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G !a",
   Ok "G !a");
  ("a iff b",
   Ok "(b | !a) & (a | !b)",
   Ok "(b | !a) & (a | !b)",
   Ok "(b | !a) & (a | !b)");
  ("a <-> b",
   Ok "(b | !a) & (a | !b)",
   Ok "(b | !a) & (a | !b)",
   Ok "(b | !a) & (a | !b)");
  ("a implies b",
   Ok "b | !a",
   Ok "b | !a",
   Ok "b | !a");
  ("(a)",
   Ok "a",
   Ok "a",
   Ok "a");
  ("((a)",
   Error (1, 5, "expected ')' but found end of input"),
   Error (1, 5, "expected ')' but found end of input"),
   Error (1, 5, "expected ')' but found end of input"));
  ("a)",
   Error (1, 2, "trailing input: ')'"),
   Error (1, 2, "trailing input: ')'"),
   Error (1, 2, "trailing input: ')'"));
  ("",
   Error (1, 1, "unexpected end of input in formula"),
   Error (1, 1, "unexpected end of input in PSL formula"),
   Error (1, 1, "unexpected end of input in formula"));
  ("   ",
   Error (1, 4, "unexpected end of input in formula"),
   Error (1, 4, "unexpected end of input in PSL formula"),
   Error (1, 4, "unexpected end of input in formula"));
  ("/* unterminated",
   Error (1, 1, "unterminated comment"),
   Error (1, 1, "unterminated comment"),
   Error (1, 1, "unterminated comment"));
  ("a - b",
   Error (1, 3, "expected '->'"),
   Error (1, 3, "expected '->'"),
   Error (1, 3, "expected '->'"));
  ("a < b",
   Error (1, 3, "expected '<->'"),
   Error (1, 3, "expected '<->'"),
   Error (1, 3, "expected '<->'"));
  ("a / b",
   Error (1, 3, "stray '/'"),
   Error (1, 3, "stray '/'"),
   Error (1, 3, "stray '/'"));
  ("F[ok] a",
   Error (1, 3, "expected integer bound, found identifier \"ok\""),
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Error (1, 3, "expected integer bound, found identifier \"ok\""));
  ("F[] a",
   Error (1, 3, "expected integer bound, found ']'"),
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Error (1, 3, "expected integer bound, found ']'"));
  ("F[3 a",
   Error (1, 5, "expected ']' but found identifier \"a\""),
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Error (1, 5, "expected ']' but found identifier \"a\""));
  ("next[ok] a",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 6, "expected integer, found identifier \"ok\""),
   Error (1, 6, "expected integer, found identifier \"ok\""));
  ("next[3 a",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 8, "expected ']' but found identifier \"a\""),
   Error (1, 8, "expected ']' but found identifier \"a\""));
  ("G[-1] a",
   Error (1, 3, "expected '->'"),
   Error (1, 3, "expected '->'"),
   Error (1, 3, "expected '->'"));
  ("a & & b",
   Error (1, 5, "unexpected '&' in formula"),
   Error (1, 5, "unexpected '&' in PSL formula"),
   Error (1, 5, "unexpected '&' in formula"));
  ("a |",
   Error (1, 4, "unexpected end of input in formula"),
   Error (1, 4, "unexpected end of input in PSL formula"),
   Error (1, 4, "unexpected end of input in formula"));
  ("| a",
   Error (1, 1, "unexpected '|' in formula"),
   Error (1, 1, "unexpected '|' in PSL formula"),
   Error (1, 1, "unexpected '|' in formula"));
  ("true",
   Ok "true",
   Ok "true",
   Ok "true");
  ("false",
   Ok "false",
   Ok "false",
   Ok "false");
  ("true & false",
   Ok "false",
   Ok "false",
   Ok "false");
  ("!true",
   Ok "false",
   Ok "false",
   Ok "false");
  ("X",
   Error (1, 2, "unexpected end of input in formula"),
   Error (1, 1, "unexpected 'X' in PSL formula"),
   Error (1, 2, "unexpected end of input in formula"));
  ("F",
   Error (1, 2, "unexpected end of input in formula"),
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Error (1, 2, "unexpected end of input in formula"));
  ("G",
   Error (1, 2, "unexpected end of input in formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (1, 2, "unexpected end of input in formula"));
  ("U",
   Error (1, 1, "unexpected 'U' in formula"),
   Error (1, 1, "unexpected 'U' in PSL formula"),
   Error (1, 1, "unexpected 'U' in formula"));
  ("a U",
   Error (1, 4, "unexpected end of input in formula"),
   Error (1, 3, "trailing input: 'U'"),
   Error (1, 4, "unexpected end of input in formula"));
  ("U a",
   Error (1, 1, "unexpected 'U' in formula"),
   Error (1, 1, "unexpected 'U' in PSL formula"),
   Error (1, 1, "unexpected 'U' in formula"));
  ("eventually! eventually! p",
   Error (1, 1, "unexpected 'eventually' in formula"),
   Ok "F p",
   Ok "F p");
  ("next! p",
   Error (1, 1, "unexpected 'next' in formula"),
   Ok "X p",
   Ok "X p");
  ("next![2] p",
   Error (1, 1, "unexpected 'next' in formula"),
   Ok "X X p",
   Ok "X X p");
  ("always! p",
   Error (1, 1, "unexpected 'always' in formula"),
   Ok "G !p",
   Ok "G !p");
  ("a until! ! b",
   Ok "a U b",
   Ok "a U !b",
   Ok "a U b");
  ("a until!",
   Error (1, 9, "unexpected end of input in formula"),
   Error (1, 9, "unexpected end of input in PSL formula"),
   Error (1, 9, "unexpected end of input in formula"));
  ("never never a",
   Error (1, 1, "unexpected 'never' in formula"),
   Ok "G !G !a",
   Ok "G !G !a");
  ("G G a",
   Ok "G a",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G a");
  ("X[2] a",
   Error (1, 2, "unexpected '[' in formula"),
   Error (1, 1, "unexpected 'X' in PSL formula"),
   Error (1, 2, "unexpected '[' in formula"));
  ("a\nU\nb",
   Ok "a U b",
   Error (2, 1, "trailing input: 'U'"),
   Ok "a U b");
  ("a\n  @",
   Error (2, 3, "illegal character '@'"),
   Error (2, 3, "illegal character '@'"),
   Error (2, 3, "illegal character '@'"));
  ("G (a ->\n F[2]\n b",
   Error (3, 3, "expected ')' but found end of input"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (3, 3, "expected ')' but found end of input"));
  ("a // comment",
   Ok "a",
   Ok "a",
   Ok "a");
  ("a /* c */ & b",
   Ok "a & b",
   Ok "a & b",
   Ok "a & b");
  ("a /",
   Error (1, 3, "stray '/'"),
   Error (1, 3, "stray '/'"),
   Error (1, 3, "stray '/'"));
  ("1",
   Error (1, 1, "unexpected integer 1 in formula"),
   Error (1, 1, "unexpected integer 1 in PSL formula"),
   Error (1, 1, "unexpected integer 1 in formula"));
  ("F[1] 2",
   Error (1, 6, "unexpected integer 2 in formula"),
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Error (1, 6, "unexpected integer 2 in formula"));
  ("p1 & p_2 & _x",
   Ok "p1 & (p_2 & _x)",
   Ok "p1 & (p_2 & _x)",
   Ok "p1 & (p_2 & _x)");
  ("A & B",
   Ok "A & B",
   Ok "A & B",
   Ok "A & B");
  ("always_on",
   Ok "always_on",
   Ok "always_on",
   Ok "always_on");
  ("G always_x",
   Ok "G always_x",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G always_x");
  ("nextstate",
   Ok "nextstate",
   Ok "nextstate",
   Ok "nextstate");
  ("a until b until c",
   Ok "a U b U c",
   Ok "(c R (b | c)) R (a | c R (b | c))",
   Ok "a U b U c");
  ("a release b release c",
   Ok "a R b R c",
   Ok "a R b R c",
   Ok "a R b R c");
  ("a U b R c",
   Ok "a U b R c",
   Error (1, 3, "trailing input: 'U'"),
   Ok "a U b R c");
  ("a -> b <-> c -> d",
   Ok "(b | (!a | !(d | !c))) & (d | (!c | !(b | !a)))",
   Ok "(b | (!a | !(d | !c))) & (d | (!c | !(b | !a)))",
   Ok "(b | (!a | !(d | !c))) & (d | (!c | !(b | !a)))");
  ("a iff b iff c",
   Ok "((b | !a) & (a | !b) | !c) & (c | !((b | !a) & (a | !b)))",
   Ok "((b | !a) & (a | !b) | !c) & (c | !((b | !a) & (a | !b)))",
   Ok "((b | !a) & (a | !b) | !c) & (c | !((b | !a) & (a | !b)))");
  ("G (a -> always b)",
   Error (1, 9, "unexpected 'always' in formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Error (1, 1, "unexpected 'G' in PSL formula"));
  ("always (a -> G b)",
   Error (1, 1, "unexpected 'always' in formula"),
   Error (1, 14, "unexpected 'G' in PSL formula"),
   Error (1, 14, "unexpected 'G' in PSL formula"));
  ("a U[2] b until c",
   Ok "a U[2] b U c",
   Error (1, 3, "trailing input: 'U'"),
   Ok "a U[2] b U c");
  ("next (a & F b)",
   Error (1, 1, "unexpected 'next' in formula"),
   Error (1, 11, "unexpected 'F' in PSL formula"),
   Error (1, 11, "unexpected 'F' in PSL formula"));
  ("eventually! (a U b)",
   Error (1, 1, "unexpected 'eventually' in formula"),
   Error (1, 16, "expected ')' but found 'U'"),
   Error (1, 16, "expected ')' but found 'U'"));
  ("a <- b",
   Error (1, 3, "expected '<->'"),
   Error (1, 3, "expected '<->'"),
   Error (1, 3, "expected '<->'"));
  ("a <-",
   Error (1, 3, "expected '<->'"),
   Error (1, 3, "expected '<->'"),
   Error (1, 3, "expected '<->'"));
  ("a -",
   Error (1, 3, "expected '->'"),
   Error (1, 3, "expected '->'"),
   Error (1, 3, "expected '->'"));
  ("a & b &",
   Error (1, 8, "unexpected end of input in formula"),
   Error (1, 8, "unexpected end of input in PSL formula"),
   Error (1, 8, "unexpected end of input in formula"));
  ("(a U b) R (c until d)",
   Ok "(a U b) R c U d",
   Error (1, 4, "expected ')' but found 'U'"),
   Ok "(a U b) R c U d");
  ("never (a & next b)",
   Error (1, 1, "unexpected 'never' in formula"),
   Ok "G !(a & X b)",
   Ok "G !(a & X b)");
  ("G F a",
   Ok "G F a",
   Error (1, 1, "unexpected 'G' in PSL formula"),
   Ok "G F a");
  ("F G a",
   Ok "F G a",
   Error (1, 1, "unexpected 'F' in PSL formula"),
   Ok "F G a");
]

let grammar syntax text =
  match Loc.catch (fun () -> Prop.parse_exn ~syntax text) with
  | Ok f -> Ok (Formula.to_string f)
  | Error { Loc.pos; message } -> Error (pos.Loc.line, pos.Loc.column, message)

let parsed =
  lazy
    (List.map
       (fun (text, _, _, _) ->
         let fltl = grammar `Fltl text in
         let psl = grammar `Psl text in
         (fltl, psl, grammar `Auto text))
       grammar_table)

let test_grammar_identity name expected got () =
  let outcome = Alcotest.(result string (triple int int string)) in
  List.iter2
    (fun row result ->
      let text, _, _, _ = row in
      Alcotest.check outcome (text ^ " (" ^ name ^ ")") (expected row) (got result))
    grammar_table (Lazy.force parsed)

(* ---- auto-detection ------------------------------------------------------ *)

(* [`Auto] reads [text] as [syntax] does: the same formula, or the same
   error, and the other syntax reads it differently *)
let auto_reads_as syntax text =
  let read (syntax : Prop.syntax) =
    Loc.catch (fun () -> Prop.parse_exn ~syntax text)
  in
  let same a b =
    match a, b with
    | Ok f, Ok g -> Formula.equal f g
    | Error e, Error e' -> e = e'
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  let syntax, other = match syntax with `Fltl -> (`Fltl, `Psl) | `Psl -> (`Psl, `Fltl) in
  same (read `Auto) (read syntax) && not (same (read `Auto) (read other))

let test_auto_detection () =
  check "always is PSL" true (auto_reads_as `Psl "always (a -> b)");
  check "never is PSL" true (auto_reads_as `Psl "never fault");
  check "eventually is PSL" true (auto_reads_as `Psl "eventually! p");
  check "next is PSL" true (auto_reads_as `Psl "next p");
  check "G/F/X are FLTL" true (auto_reads_as `Fltl "G (a -> F[5] b)");
  (* until/release exist in both syntaxes with different strengths: they
     must not flip detection, so bare-word texts keep FLTL semantics *)
  check "until stays FLTL" true (auto_reads_as `Fltl "a until b");
  check "release stays FLTL" true
    (auto_reads_as `Fltl "a release b & a until b");
  Alcotest.check formula "auto until is the strong FLTL U"
    (Prop.parse_exn ~syntax:`Fltl "a until b")
    (Prop.parse_exn "a until b");
  check "garbage gets the FLTL error" true (auto_reads_as `Fltl "a & )");
  Alcotest.check formula "auto picks PSL on keyword"
    (Prop.parse_exn ~syntax:`Psl "always (a -> eventually! b)")
    (Prop.parse_exn "always (a -> eventually! b)")

(* ---- positioned errors --------------------------------------------------- *)

let parse_error ?syntax text =
  match Prop.parse_exn ?syntax text with
  | _ -> Alcotest.failf "%S parsed" text
  | exception Loc.Error error -> error

let test_positioned_errors () =
  let e = parse_error "G (a -> " in
  check_int "line" 1 e.Loc.pos.Loc.line;
  check "column points past the arrow" true (e.Loc.pos.Loc.column >= 8);
  check "message non-empty" true (e.Loc.message <> "");
  check "rendering carries position" true
    (String.starts_with ~prefix:"1:" (Loc.to_string e));
  check_int "lex error column" 3 (parse_error "a @ b").Loc.pos.Loc.column;
  ignore (parse_error ~syntax:`Psl "always");
  (* integer literals are range-checked where the lexer reads them *)
  Alcotest.(check string) "overflowing bound"
    "1:11: integer literal 99999999999999999999 is out of range"
    (Loc.to_string (parse_error "G (a -> F[99999999999999999999] b)"));
  (* a PSL next count builds that many X nodes, so it is capped *)
  Alcotest.(check string) "next count above the cap"
    "1:6: next count 10001 is above 10000"
    (Loc.to_string (parse_error "next[10001] a"));
  check "next count at the cap" true
    (Formula.size (Prop.parse_exn "next[10000] a") = 10001)

(* ---- the checker's text path --------------------------------------------- *)

let test_checker_auto_text () =
  let checker = Sctc.Checker.create ~name:"prop-test" () in
  Sctc.Checker.register_sampler checker "p" (fun () -> true);
  Sctc.Checker.register_sampler checker "q" (fun () -> true);
  Sctc.Checker.add_property_text ~syntax:`Auto checker ~name:"fltl"
    "G (p -> F q)";
  Sctc.Checker.add_property_text ~syntax:`Auto checker ~name:"psl"
    "always (p -> eventually! q)";
  Sctc.Checker.step checker;
  check "both properties monitored" true
    (List.length (Sctc.Checker.verdicts checker) = 2);
  check "malformed text raises Loc.Error" true
    (match
       Sctc.Checker.add_property_text checker ~name:"bad" "G (p -> "
     with
    | exception Loc.Error _ -> true
    | _ -> false);
  (* the bugfix companion: unknown names now raise a descriptive
     Invalid_argument instead of a bare Not_found *)
  let contains haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check "unknown verdict name is descriptive" true
    (match Sctc.Checker.verdict checker "nope" with
    | exception Invalid_argument msg -> contains msg "fltl"
    | _ -> false)

(* ---- totality on mutated property texts ---------------------------------- *)

let qcheck_property_texts_total =
  let corpus = Array.of_list (List.map (fun (text, _, _, _) -> text) grammar_table) in
  let tokens =
    [ "G"; "F"; "X"; "U"; "R"; "["; "]"; "[3]"; "("; ")"; "->"; "<->"; "&"; "|";
      "!"; "always"; "never"; "eventually!"; "next"; "next[2]"; "until"; "until!";
      "release"; "not"; "iff"; "true"; "/*"; "//"; "\n"; "@"; "-"; "<";
      "99999999999999999999"; "4611686018427387903"; "10000" ]
  in
  List.map
    (fun (name, syntax) ->
      Text_fuzz.total
        ~name:("property text (" ^ name ^ ") total on mutated corpora")
        ~tokens corpus
        (Prop.parse_exn ~syntax))
    [ ("fltl", `Fltl); ("psl", `Psl); ("auto", `Auto) ]

let () =
  Alcotest.run "prop"
    [
      ( "equivalence",
        [
          Alcotest.test_case "FLTL (incl. EEE specs)" `Quick
            (test_grammar_identity "fltl"
               (fun (_, fltl, _, _) -> fltl)
               (fun (fltl, _, _) -> fltl));
          Alcotest.test_case "PSL" `Quick
            (test_grammar_identity "psl"
               (fun (_, _, psl, _) -> psl)
               (fun (_, psl, _) -> psl));
          Alcotest.test_case "Auto" `Quick
            (test_grammar_identity "auto"
               (fun (_, _, _, auto) -> auto)
               (fun (_, _, auto) -> auto));
        ] );
      ("auto", [ Alcotest.test_case "detection rule" `Quick test_auto_detection ]);
      ( "errors",
        [ Alcotest.test_case "structured fields" `Quick test_positioned_errors ]
      );
      ( "checker",
        [ Alcotest.test_case "add_property_text Auto" `Quick
            test_checker_auto_text ]
      );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest qcheck_property_texts_total );
    ]
