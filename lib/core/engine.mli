(** The monitor-synthesis engine selection — one enum for the whole stack.

    Historically every front end declared its own private copy of this
    enum ([bin/tcheck.ml] had an ad-hoc cmdliner [Arg.enum],
    [Verif.Session], [Eee.Harness] and [Eee.Driver] each re-exported
    [Checker.engine] defaults); this module is the single definition.
    {!Checker.engine} is an alias of this type, [Tcheck_cli.engine_conv]
    is the cmdliner converter over {!of_string}/{!to_string}, and every
    config record ([Verif.Session.config], [Eee.Harness.plan],
    [Eee.Driver.config]) carries a value of this type.

    The engines:

    - {!Otf} — on-the-fly formula progression, memoized through
      [Transition_cache]. No synthesis cost at registration; the
      reachable AR-automaton fragment is determinized lazily.
    - {!Explicit} — the full AR-automaton synthesized up front
      ([Ar_automaton.synthesize]); fastest steady-state stepping (one
      dense-array lookup per trigger) but synthesis can blow up on large
      bounds ([Ar_automaton.Too_large]). This is the paper's compiled
      monitor: the automaton that [tcheck automaton] prints as IL text
      ([Il]) is the one the monitor steps.
    - {!Auto} — the default: {!Explicit} when synthesis stays under
      {!auto_max_states} states, {!Otf} otherwise. Explicit speed where
      synthesis is cheap; where it is not, the aborted attempt is paid
      once per domain ([Ar_automaton.synthesize_memo] caches the
      failure) and the monitor runs on-the-fly from the start.

    Verdicts are identical across all engines, per step and at
    [Checker.finalize], weak or strong. *)

type t = Otf | Explicit | Auto

val all : t list
(** In {!to_string} order: [otf], [explicit], [auto]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts ["on-the-fly"] as an alias of ["otf"]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on unknown names (the message lists the
    known ones). *)

val pp : Format.formatter -> t -> unit

val describe : t -> string
(** One-line description, for CLI docs and bench tables. *)

val default : t
(** {!Auto}. *)

val auto_max_states : int
(** The synthesis state budget {!Auto} tries {!Explicit} under before
    falling back to {!Otf} (10000). [?max_states] overrides it per
    property. *)
