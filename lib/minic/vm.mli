(** The MiniC executor: a bytecode virtual machine.

    Everything outside [lib/minic] runs programs here: [tcheck run], the
    derived SystemC-like model of approach 2 and the benchmarks. A
    checked program is compiled once ({!Compile}) and run with
    caller-provided hooks: memory accesses, [nondet] stimuli and the
    per-statement and per-call events.

    The MiniC call stack lives in the VM, not on the OCaml stack, so a
    run can also advance one statement at a time: {!start} sets it up
    and each {!step} runs it to just after its next statement tick. The
    derived model's timed process runs the software one time unit a step
    this way.

    The tree-walking {!Interp} stays in this library as the tests'
    oracle. It restates this module's outcome, hooks and exceptions, and
    [test/test_vm.ml] holds the two to the same hook order (statement
    tick before each statement, function entry after parameter binding,
    memory and nondet at their evaluation points), statement counts,
    fuel accounting, call-depth bound, error messages and positions. *)

type outcome =
  | Finished of int option  (** entry function returned (with value) *)
  | Halted  (** the program executed [halt()] *)
  | Fuel_exhausted

exception Assertion_failed of Ast.position
exception Assumption_failed of Ast.position
exception Runtime_error of string * Ast.position
(** [Printexc.to_string] renders the three crashes as [tcheck run]
    prints them: ["assertion failed at L:C"], ["assumption failed at
    L:C"] and ["runtime error at L:C: MSG"]. *)

val max_call_depth : int
(** The most calls active at once, the entry function's included. A call
    beyond it raises {!Runtime_error} ["call depth exceeds
    <max_call_depth>"] at the call's position, before its function-entry
    hook. *)

type hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;  (** before each executed statement *)
  on_function_entry : string -> unit;  (** after parameters are bound *)
}

val default_hooks : unit -> hooks
(** Sparse hashtable memory, [nondet] returning [lo], no-op events. *)

type t

val create : Typecheck.info -> t
(** Instantiate a program: globals take the initializer values
    {!Typecheck} evaluated, arrays are zeroed. The first [create] of an
    [info] compiles it into {!Typecheck.vm_program}; every later one, on
    any domain, only allocates a fresh VM (globals, arrays, statement
    count) over that shared, immutable {!Bytecode.t}. *)

val reset : t -> unit
(** Back to the freshly created state (including the statement count);
    a paused run is dropped. *)

val run : ?fuel:int -> t -> hooks -> entry:string -> outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes parameters.
    @raise Assertion_failed, Runtime_error as encountered. *)

type progress =
  | Ticked
      (** the run stopped just after a statement tick, whose
          [on_statement] hook has run; the statement itself runs in the
          next {!step} *)
  | Ended of outcome  (** the run finished, halted or ran out of fuel *)

val start : ?fuel:int -> t -> hooks -> entry:string -> unit
(** Set up a run of the entry function, as {!run} would, without
    executing anything; {!step} advances it. A run already paused is
    dropped.
    @raise Invalid_argument as {!run}. *)

val step : t -> progress
(** Run the paused run to just after its next statement tick, or to its
    end: the tick stream, the hooks and the outcome are exactly {!run}'s.
    A crash raises as in {!run} and ends the run.
    @raise Invalid_argument when no run is paused: before {!start},
    after the run ended or crashed, or after {!reset}. *)

val read_global : t -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val global_reader : t -> string -> unit -> int
(** [global_reader vm name] finds the scalar (or constant) global [name]
    once and returns a reader of its current value: one array read with
    no lookup, valid across {!reset}.
    @raise Invalid_argument as {!read_global}, at once. *)

val read_element : t -> string -> int -> int
(** @raise Runtime_error on out-of-bounds. *)

val globals_snapshot : t -> (string * int) list
(** Scalar globals with current values, sorted by name. *)

val statements_executed : t -> int
