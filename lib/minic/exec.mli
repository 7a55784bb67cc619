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
exception Out_of_fuel

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
(** Register the hooks used by {!run}/{!call} when none are passed. *)

val reset : t -> unit
(** Back to the freshly created state: globals reinitialized, statement
    count zeroed. *)

val run : ?fuel:int -> ?hooks:hooks -> t -> entry:string -> outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes
    parameters.
    @raise Assertion_failed, Runtime_error as encountered. *)

val call : ?hooks:hooks -> t -> fuel:int ref -> string -> int list -> int option
(** Invoke one function with argument values (drivers issuing
    individual operations against a resident program state). *)

val read_global : t -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val write_global : t -> string -> int -> unit

val read_element : t -> string -> int -> int

val globals_snapshot : t -> (string * int) list
(** Scalar globals with current values, sorted by name. *)

val statements_executed : t -> int
