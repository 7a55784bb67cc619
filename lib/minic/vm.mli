(** Bytecode virtual machine — the fast MiniC execution backend.

    Runs programs compiled by {!Compile} with the same observable
    behavior as {!Interp}: identical hook call order (statement tick
    before each statement, function entry after parameter binding,
    memory and nondet at their evaluation points), identical statement
    counts, fuel accounting and call-depth bound
    ({!Interp.max_call_depth}), identical error messages and positions,
    and {!Interp}'s exception constructors, so call sites written
    against the interpreter pattern-match unchanged.

    The MiniC call stack lives in the VM, not on the OCaml stack, so a
    run can also advance one statement at a time: {!start} sets it up
    and each {!step} runs it to just after its next statement tick. *)

type t

val create : Bytecode.t -> t
(** Globals take the initializer values {!Typecheck} evaluated, arrays
    are zeroed (equivalent to [Interp.create] running the
    initializers). *)

val reset : t -> unit
(** Back to the freshly created state (including the statement count);
    a paused run is dropped. *)

val run : ?fuel:int -> t -> Interp.hooks -> entry:string -> Interp.outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes parameters.
    @raise Interp.Assertion_failed, Interp.Runtime_error as encountered. *)

type progress =
  | Ticked
      (** the run stopped just after a statement tick, whose
          [on_statement] hook has run; the statement itself runs in the
          next {!step} *)
  | Ended of Interp.outcome  (** the run finished, halted or ran out of fuel *)

val start : ?fuel:int -> t -> Interp.hooks -> entry:string -> unit
(** Set up a run of the entry function, as {!run} would, without
    executing anything; {!step} advances it. A run already paused is
    dropped.
    @raise Invalid_argument as {!run}. *)

val step : t -> progress
(** Run the paused run to just after its next statement tick, or to its
    end. A crash raises as in {!run} and ends the run.
    @raise Invalid_argument when no run is paused. *)

val read_global : t -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val global_reader : t -> string -> unit -> int
(** [global_reader vm name] finds [name] once and returns a reader of
    its current value, valid across {!reset}.
    @raise Invalid_argument as {!read_global}, at once. *)

val read_element : t -> string -> int -> int
(** @raise Interp.Runtime_error on out-of-bounds. *)

val globals_snapshot : t -> (string * int) list
(** Scalar globals with current values, sorted by name. *)

val statements_executed : t -> int
