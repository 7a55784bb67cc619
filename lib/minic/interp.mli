(** Reference interpreter for MiniC: the tests' oracle.

    Executes a checked program directly on the AST. No product path runs
    it: {!Vm} is the one executor of [tcheck run], the derived model of
    approach 2 and the benchmarks. The interpreter stays as the
    independent semantics the differential tests hold the VM and the
    compilers to, so it shares the VM's outcome, hooks and crash
    exceptions (a pattern written against one matches the other) and
    its call-depth bound {!Vm.max_call_depth}.

    Fuel limits bound execution of non-terminating control software. *)

type outcome = Vm.outcome =
  | Finished of int option  (** entry function returned (with value) *)
  | Halted  (** the program executed [halt()] *)
  | Fuel_exhausted

exception Assertion_failed of Ast.position
exception Assumption_failed of Ast.position
exception Runtime_error of string * Ast.position
(** The three are {!Vm}'s own exceptions, so a handler written against
    one executor catches the other's crashes. *)

type hooks = Vm.hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;  (** before each executed statement *)
  on_function_entry : string -> unit;  (** after parameters are bound *)
}

val default_hooks : unit -> hooks
(** {!Vm.default_hooks} *)

type env

val create : Typecheck.info -> env
(** Allocates and initializes globals (initializers run in order). *)

val read_global : env -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val write_global : env -> string -> int -> unit

val globals_snapshot : env -> (string * int) list
(** Scalar globals with current values (for debugging and propositions). *)

val statements_executed : env -> int

val run : ?fuel:int -> env -> hooks -> entry:string -> outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes parameters.
    @raise Assertion_failed, Runtime_error as encountered. *)
