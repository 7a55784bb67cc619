(** Structured trace/event bus for verification sessions.

    Everything the checker stack observes — triggers, proposition samples,
    verdict changes, the ESW-monitor handshake, test-case boundaries,
    watchdogs and software crashes — is published as a typed event on a
    bus. Sinks subscribe to the bus: a verification campaign attaches
    one per job that buffers the job's events for its ordered JSONL
    output ([Verif.Campaign]) when one of its sinks reads events, and
    tests attach a {!memory_sink}. The
    {!null} bus is a shared disabled instance; emitting into it costs
    one branch, so hot paths stay fast when tracing is off (guard
    allocations with {!enabled}).

    The bus also counts its events, even when no sink is attached. *)

(** What happened. Time-unit stamping is added by the bus. *)
type kind =
  | Trigger  (** the checker was triggered (one {!Checker.step}) *)
  | Sample of { prop : string; value : bool }
      (** a proposition was sampled during a monitor step *)
  | Verdict_change of { property : string; verdict : Verdict.t }
      (** a property's verdict was first reported, or changed *)
  | Handshake_armed of { source : string }
      (** the trigger process armed the monitors (for the ESW monitor:
          the initialization-flag handshake completed) *)
  | Test_case_begin of { index : int; op : string }
  | Test_case_end of { index : int; result : string option }
      (** [result = None]: the operation never answered (watchdog) *)
  | Watchdog_fired of { index : int; op : string }
  | Software_crashed of { reason : string }

type event = {
  seq : int;
      (** emission order on this bus, starting at the bus's first [seq]
          (0 unless {!create} was given another) *)
  time_unit : int;  (** backend time (cycles / statements) at emission *)
  kind : kind;
}

(** A subscriber. [close] is called once by {!close}. *)
type sink = { on_event : event -> unit; on_close : unit -> unit }

type t

val null : t
(** The shared disabled bus: {!emit} is a no-op, {!enabled} is [false],
    counters stay zero. {!attach} on it raises [Invalid_argument]. *)

val create : ?first_seq:int -> unit -> t
(** A live bus with no sinks whose first event gets [seq = first_seq]
    (default 0) and each later one the next number. A campaign starts a
    job's bus at the campaign-global [seq] when it already knows it, so
    the job's events need no renumbering ([Verif.Campaign]). *)

val enabled : t -> bool
(** [false] exactly for {!null}. Hot paths should guard event
    construction: [if Trace.enabled t then Trace.emit t (...)]. *)

val attach : t -> sink -> unit
(** @raise Invalid_argument on the {!null} bus. *)

val set_time_source : t -> (unit -> int) -> unit
(** Install the clock used to stamp [time_unit] (a verification session
    installs its backend's cycle/statement counter; default constant 0). *)

val emit : t -> kind -> unit
(** Count the event and, when a sink is attached, stamp it with the
    next [seq] and the time source and deliver it to every sink. With
    no sink attached nothing is built: the count still moves, so
    {!events} stays exact. *)

val close : t -> unit
(** Call every attached sink's [on_close]. *)

(** {2 Event count} *)

val events : t -> int
(** Events emitted on this bus, counted from its first [seq]: a bus
    created with [~first_seq:k] that emitted [n] events reports [n]. *)

(** {2 Sinks} *)

val memory_sink : unit -> sink * (unit -> event list)
(** Buffering sink for tests; the closure returns events oldest first. *)

(** {2 Rendering and parsing} *)

val kind_label : kind -> string
(** The JSON ["event"] tag, e.g. ["verdict_change"]. *)

val event_to_json : event -> string
(** One-line JSON object (no trailing newline). *)

val event_to_json_into : Buffer.t -> event -> unit
(** Append exactly the bytes of {!event_to_json} to [buffer] — the hot
    path of streaming campaign emission, where every event of every job
    is rendered once. It appends one constant prefix per event kind,
    writes ints as digits (a negative int goes through [string_of_int])
    and appends each string value as it is unless a byte needs escaping,
    in which case it escapes it byte by byte into [buffer]; for
    non-negative ints and strings without such bytes it allocates
    nothing beyond the buffer's own growth. The bytes equal {!Json.obj}
    over the members [seq], [tu], [event] and the kind's fields, in that
    order. *)

val event_of_json : string -> (event, string) result
(** Inverse of {!event_to_json}: reads one line with {!Json.parse} and
    accepts any key order. The line must be exactly one JSON object;
    [seq], [tu] and [index] must be integer numerals. A syntax error
    names its byte offset; a well-formed line of the wrong shape names
    the offending member. Never raises. *)

(** {2 JSON} *)

module Json = Obs.Json
(** The writer {!event_to_json} renders with and the reader
    {!event_of_json} reads with. *)
