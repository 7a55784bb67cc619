(** Backend-agnostic execution of MiniC programs.

    The single entry point the rest of the system uses to run embedded
    software: the verification session's reference backend, the derived
    SystemC-like model and the EEE harness all go through this
    interface. The bytecode {!Vm} runs every program {!Typecheck}
    accepts and is the default; the tree-walking {!Interp} is reachable
    through [?backend] as the differential-testing oracle.

    The outcome, hook and exception types are equalities with the
    interpreter's, so existing pattern matches compile unchanged, and
    both backends produce identical observable behavior — same hook
    order, statement counts, verdicts, error messages. *)

type kind =
  | Interp  (** tree-walking reference interpreter (the test oracle) *)
  | Vm  (** bytecode compiler + dispatch-loop VM (the default) *)

type outcome = Interp.outcome =
  | Finished of int option
  | Halted
  | Fuel_exhausted

type hooks = Interp.hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;
  on_function_entry : string -> unit;
}

exception Assertion_failed of Ast.position
exception Assumption_failed of Ast.position
exception Runtime_error of string * Ast.position

val default_hooks : unit -> hooks

val to_string : kind -> string
(** ["interp"] or ["vm"], as in the [sim_<kind>_*] metric names. *)

type t

val create : ?backend:kind -> Typecheck.info -> t
(** Instantiate a program on the chosen backend (default [Vm]).
    Globals are initialized in declaration order either way. On the VM
    the program is compiled by the first [create] of this [info] and
    kept in {!Typecheck.vm_program}; every later [create], on any
    domain, only allocates a fresh VM (globals, arrays, statement
    count) over that shared, immutable {!Bytecode.t}. *)

val set_hooks : t -> hooks -> unit
(** Register the hooks used by {!start}, and by {!run} when none are
    passed. *)

val reset : t -> unit
(** Back to the freshly created state: globals reinitialized, statement
    count zeroed. *)

val run : ?fuel:int -> ?hooks:hooks -> t -> entry:string -> outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes
    parameters.
    @raise Assertion_failed, Runtime_error as encountered. *)

(** {2 Stepping}

    A run can also advance one statement at a time, which is how the
    derived model's timed process runs the software one time unit a
    step. {!start} sets the run up and each {!step} runs it to just after
    its next statement tick, whose [on_statement] hook has run by then:
    the tick stream, the hooks and the outcome are exactly {!run}'s.

    The VM keeps its call stack in its own arrays, so a step returns
    from one plain dispatch loop. The interpreter recurses on the OCaml
    stack, so its arm steps as a coroutine: its statement hook performs
    an effect that {!step} handles, parking the rest of the run. It
    stays until the interpreter, the tests' oracle, leaves production
    along with [kind] (ROADMAP.md, "One implementation per layer"). *)

type progress = Vm.progress =
  | Ticked
      (** stopped just after a statement tick; the statement itself
          runs in the next {!step} *)
  | Ended of outcome  (** finished, halted or out of fuel *)

val start : fuel:int -> t -> entry:string -> unit
(** Set up a run of the entry function as {!run} would, with the hooks
    of {!set_hooks} and at most [fuel] statements, executing nothing; a
    run already paused is dropped.
    @raise Invalid_argument on the VM if [entry] does not exist or takes
    parameters; the interpreter raises it at the first {!step}. *)

val step : t -> progress
(** Advance the run to just after its next statement tick, or to its
    end. An assertion or assumption failure or a runtime error raises as
    in {!run} and ends the run.
    @raise Invalid_argument when no run is paused: before {!start},
    after the run ended or crashed, or after {!reset}. *)

(** {2 Program state} *)

val read_global : t -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val global_reader : t -> string -> unit -> int
(** [global_reader t name] finds the scalar (or constant) global [name]
    once and returns a reader of its current value: on the VM, one
    array read with no lookup. It stays valid across {!reset}.
    @raise Invalid_argument for unknown or array globals, at once. *)

val read_element : t -> string -> int -> int

val globals_snapshot : t -> (string * int) list
(** Scalar globals with current values, sorted by name. *)

val statements_executed : t -> int
