(** Discrete-event simulation kernel: the part of the OSCI SystemC
    scheduler that the paper's SCTC is stepped by.

    A run alternates an evaluation phase, which runs every runnable
    process, a delta-notification phase, which wakes the waiters of the
    events notified during evaluation, and, when that wakes nobody, a
    timed advance to the earliest pending wake-up. Both approaches need
    only this: approach 1 steps the checker on a clock edge, approach 2 on
    the derived model's program-counter event.

    A process is a thread or a method. A thread ([SC_THREAD]) is a
    cooperative thread built on OCaml 5 effect handlers; [wait_event] and
    [wait_for] suspend it like SystemC's [wait]. A method ([SC_METHOD]
    with static sensitivity) is a callback the kernel runs to completion
    every time its event is notified, or every period; it never
    suspends, so it costs no continuation.

    Order contract (trace bytes depend on it):
    - runnable processes run first in, first out, spawn order first;
    - the waiters of one event, threads and methods alike, wake in the
      order they began waiting;
    - events notified in one evaluation phase wake their waiters in
      [notify] order, before time advances;
    - processes due at the same time wake in the order they called
      [wait_for];
    - a method takes exactly the places of its thread equivalent (see
      {!spawn_method} and {!spawn_periodic}): it begins waiting in its
      first evaluation phase, not when it is spawned, and begins waiting
      again, at the tail, after each run. *)

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

(** {2 Processes} *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn kernel body] registers a thread process. It starts running in
    the next evaluation phase of {!run}. [body] may call the wait functions
    below; when [body] returns, the process terminates. *)

val spawn_method : t -> ?init:(unit -> unit) -> event -> (unit -> unit) -> unit
(** [spawn_method kernel ~init event f] registers a method statically
    sensitive to [event]. It behaves exactly like the thread
    [init (); while true do wait_event event; f () done] spawned at the
    same point: in the next evaluation phase it runs [init] (default: do
    nothing) and joins [event]'s waiter queue; each time the event wakes
    it, it runs [f] and rejoins the queue at the tail. [f] may call
    {!notify} and {!stop} but not the wait functions. *)

val spawn_periodic : t -> period:int -> (unit -> unit) -> unit
(** [spawn_periodic kernel ~period f] registers a method that runs [f]
    in its first evaluation phase and then every [period] time units. It
    behaves exactly like the thread
    [while true do f (); wait_for period done].
    @raise Invalid_argument unless [period >= 1]. *)

(** {2 Waiting — must be called from inside a thread body} *)

val wait_event : event -> unit
(** Suspend until the event is notified.
    @raise Invalid_argument outside a thread, in a method for instance. *)

val wait_for : t -> int -> unit
(** Suspend for [n] time units.
    @raise Invalid_argument unless [n >= 1], and outside a thread. *)

(** {2 Notification and running} *)

val notify : event -> unit
(** Delta notification: the event's waiters wake in the next delta cycle. *)

val stop : t -> unit
(** Stop {!run} at the end of the current evaluation phase; notifications
    made in it are delivered when {!run} is called again. Callable from
    inside a thread or a method. *)

val run : ?max_time:int -> t -> unit
(** Run until no activity remains, [stop] is called, or the next timed
    wake-up lies past [max_time]. [run] may be called again afterwards to
    resume. *)
