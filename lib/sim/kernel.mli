(** Discrete-event simulation kernel: the part of the OSCI SystemC
    scheduler that the paper's SCTC is stepped by.

    A run alternates an evaluation phase, which runs every runnable
    process, a delta-notification phase, which wakes the waiters of the
    events notified during evaluation, and, when that wakes nobody, a
    timed advance to the earliest pending [wait_for]. Both approaches need
    only this: approach 1 steps the checker on a clock edge, approach 2 on
    the derived model's program-counter event. Processes are cooperative
    threads built on OCaml 5 effect handlers; [wait_event] and [wait_for]
    suspend the calling process like SystemC's [wait].

    Order contract (trace bytes depend on it):
    - runnable processes run first in, first out, spawn order first;
    - the waiters of one event wake in the order they began waiting;
    - events notified in one evaluation phase wake their waiters in
      [notify] order, before time advances;
    - processes due at the same time wake in the order they called
      [wait_for]. *)

type t
(** A simulation kernel instance. Kernels are independent; a process spawned
    on one kernel must only wait on events of the same kernel. *)

type event
(** A notification channel ([sc_event] analog). *)

val create : unit -> t

val now : t -> int
(** Current simulation time (abstract time units). *)

val event : t -> string -> event

val event_name : event -> string

val spawn : t -> (unit -> unit) -> unit
(** [spawn kernel body] registers a thread process. It starts running in
    the next evaluation phase of {!run}. [body] may call the wait functions
    below; when [body] returns, the process terminates. *)

(** {2 Waiting — must be called from inside a process body} *)

val wait_event : event -> unit
(** Suspend until the event is notified. *)

val wait_for : t -> int -> unit
(** Suspend for [n] time units.
    @raise Invalid_argument unless [n >= 1]. *)

(** {2 Notification and running} *)

val notify : event -> unit
(** Delta notification: the event's waiters wake in the next delta cycle. *)

val stop : t -> unit
(** Stop {!run} at the end of the current evaluation phase; notifications
    made in it are delivered when {!run} is called again. Callable from
    inside a process. *)

val run : ?max_time:int -> t -> unit
(** Run until no activity remains, [stop] is called, or the next timed
    wake-up lies past [max_time]. [run] may be called again afterwards to
    resume. *)
