(** Discrete-event simulation kernel: the part of the OSCI SystemC
    scheduler that the paper's SCTC is stepped by.

    A run alternates an evaluation phase, which runs every runnable
    process, a delta-notification phase, which wakes the waiters of the
    events notified during evaluation, and, when that wakes nobody, a
    timed advance to the earliest pending wake-up. Both approaches need
    only this: approach 1 steps the checker on a clock edge, approach 2 on
    the derived model's program-counter event.

    Every process is a callback the kernel runs to completion; none
    suspends. A method ([SC_METHOD] with static sensitivity) runs each
    time its event is notified. A timed process runs again after the
    number of time units its last run returned: the clock, and the
    derived model's software, whose every run steps its VM through one
    statement ([Esw.Esw_model]).

    The runnable queue and each event's waiter queue are intrusive: a
    process waits in at most one of them at a time, linked through a
    field of its own, and an event notified again before its waiters
    wake is queued once. So no scheduling step allocates once the
    kernel's arrays have grown.

    Order contract (trace bytes depend on it):
    - runnable processes run first in, first out, spawn order first;
    - a method begins waiting on its event in its first evaluation phase,
      not when it is spawned, and again, at the tail, after each run; the
      methods of one event wake in the order they began waiting;
    - events notified in one evaluation phase wake their methods in
      [notify] order, before time advances;
    - timed processes due at the same time run in the order of the runs
      that scheduled them, all before the methods they wake. *)

type t
(** A simulation kernel instance. Kernels are independent; a process
    spawned on one kernel must only be sensitive to events of the same
    kernel. *)

type event
(** A notification channel ([sc_event] analog). *)

val create : unit -> t

val now : t -> int
(** Current simulation time (abstract time units). *)

val event : t -> string -> event

val event_name : event -> string

(** {2 Processes} *)

val spawn_method : t -> ?init:(unit -> unit) -> event -> (unit -> unit) -> unit
(** [spawn_method kernel ~init event f] registers a method statically
    sensitive to [event]. In the next evaluation phase of {!run} it runs
    [init] (default: do nothing) and joins [event]'s waiter queue; each
    time the event wakes it, it runs [f] and rejoins the queue at the
    tail. *)

val spawn_timed : t -> (unit -> int) -> unit
(** [spawn_timed kernel f] registers a timed process. [f] runs in the
    next evaluation phase of {!run}, and again [n] time units after any
    run that returned [n >= 1]; a run that returns less ends the
    process. *)

(** {2 Notification and running} *)

val notify : event -> unit
(** Delta notification: the event's waiters wake in the next delta cycle. *)

val stop : t -> unit
(** Stop {!run} at the end of the current evaluation phase; notifications
    made in it are delivered when {!run} is called again. *)

val run : ?max_time:int -> t -> unit
(** Run until no activity remains, [stop] is called, or the next timed
    wake-up lies past [max_time]. [run] may be called again afterwards to
    resume. An exception that escapes a process ends that process and
    the call. *)
