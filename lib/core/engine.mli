(** The monitor engine selection — one enum for the whole stack.

    {!Checker.engine} is an alias of this type, [Tcheck_cli.engine_conv]
    is the cmdliner converter over {!of_string}/{!to_string}, and every
    config record ([Verif.Session.config], [Eee.Harness.plan],
    [Eee.Driver.config]) carries a value of this type.

    Both engines step the same structure: the calling domain's
    AR-automaton table for the property ([Ar_automaton.shared]). They
    differ only in when the table is filled:

    - {!Otf} — the default: on demand, one entry the first time a
      monitor takes it. Registration costs nothing, and a run pays only
      for the fragment of the automaton it visits.
    - {!Explicit} — at registration, by exploring the table to its
      fixpoint ([Ar_automaton.explore]): the paper's compiled monitor,
      whose exploration time is the "AR-automaton generation" part of
      V.T. Exploration can blow up on large bounds
      ([Ar_automaton.Too_large]). The table it completes is the automaton
      [tcheck automaton] prints as IL text ([Il]).

    Verdicts are identical across engines, per step and at
    [Checker.finalize], weak or strong. *)

type t = Otf | Explicit

val all : t list
(** In {!to_string} order: [otf], [explicit]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts ["on-the-fly"] as an alias of ["otf"]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on unknown names (the message lists the
    known ones). *)

val default : t
(** {!Otf}. *)

val auto_max_states : int
(** 10000: the state cap of the end-to-end benchmark's cold synthesis
    probe. No engine reads it; it stays while bench/e2e does. *)
