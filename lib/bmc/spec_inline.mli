(** SpC-style property instrumentation.

    CBMC has no temporal-property support; the paper used the BLAST Spec
    tool to weave the property into the C source and fed the generated
    file to CBMC. This module reproduces that flow: the FLTL property is
    synthesized into an explicit AR-automaton whose transition table is
    emitted as a MiniC monitor function [__mon_step] over a [__mon_state]
    global; a call to the monitor is inserted after every statement of
    every function, and reaching a Reject state asserts false.

    Propositions are given as boolean MiniC expressions over the program's
    globals. The instrumented program is an ordinary MiniC program — any
    of the four verification engines can run it; {!Bmc.check} turns
    property violations into counterexamples. *)

exception Instrument_error of string

val instrument :
  ?max_states:int ->
  property:Formula.t ->
  predicates:(string * string) list ->
  Minic.Typecheck.info ->
  Minic.Typecheck.info
(** [predicates] maps each proposition name of the property to MiniC
    boolean-expression source text (parsed with {!Minic.C_parser.parse_expr}).
    @raise Instrument_error on missing predicates or synthesis blowup.
    @raise Loc.Error at a predicate's position when it does not parse
    or the instrumented program does not typecheck. *)

val monitor_state_count : Minic.Typecheck.info -> int option
(** Number of monitor states in an instrumented program (from the
    generated constants), for reporting. *)
