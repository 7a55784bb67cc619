(** Reference interpreter for MiniC.

    Executes a checked program directly on the AST. The interpreter is
    deliberately pluggable: memory accesses, external stimuli and per-event
    hooks are provided by the caller, because the same engine serves

    - reference semantics for the compiler's differential tests, and
    - the paper's approach 2: the derived software model executes through
      this engine inside a simulation process, with [on_statement]
      notifying the program-counter event and [mem_read]/[mem_write] going
      to the virtual memory model.

    Fuel limits bound execution of non-terminating control software. *)

type outcome =
  | Finished of int option  (** entry function returned (with value) *)
  | Halted  (** the program executed [halt()] *)
  | Fuel_exhausted

exception Assertion_failed of Ast.position
exception Assumption_failed of Ast.position
exception Runtime_error of string * Ast.position

val max_call_depth : int
(** The most calls active at once, the entry function's included, on
    this interpreter and on {!Vm}. A call beyond it raises
    {!Runtime_error} ["call depth exceeds <max_call_depth>"] at the
    call's position, before its function-entry hook. *)

type hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;  (** before each executed statement *)
  on_function_entry : string -> unit;  (** after parameters are bound *)
}

val default_hooks : unit -> hooks
(** Sparse hashtable memory, [nondet] returning [lo], no-op events. *)

type env

val create : Typecheck.info -> env
(** Allocates and initializes globals (initializers run in order). *)

val read_global : env -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val write_global : env -> string -> int -> unit

val read_element : env -> string -> int -> int
(** Array element; @raise Runtime_error on out-of-bounds. *)

val globals_snapshot : env -> (string * int) list
(** Scalar globals with current values (for debugging and propositions). *)

val statements_executed : env -> int

val run : ?fuel:int -> env -> hooks -> entry:string -> outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes parameters.
    @raise Assertion_failed, Runtime_error as encountered. *)
