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

(** {3 The JSONL writer} *)

type writer
(** Renders events as JSONL, one line per event: the bytes of {!Json.obj}
    over the members [seq], [tu], [event] and the kind's fields, in that
    order, then a newline. The writer assembles its lines in a 64 KB
    byte block of its own and hands the block's bytes to its output when
    the block is full and on {!flush}; a line may straddle two blocks,
    and a line longer than the block goes out in several pieces, in
    order. Writing a line allocates nothing, except to write a negative
    int (no emitter produces one) and to escape a string that needs it
    outside the writer's cache of sample lines.

    A writer keeps, for each prop string it has seen (by physical
    identity, up to a constant number of them) and each value, the
    rendered tail of that sample's line, so a sample of a shared prop
    string is copied rather than rendered. A campaign's JSONL sinks
    ([Verif.Campaign]) each own one writer and flush it at the end of
    every outcome. *)

val writer : (Bytes.t -> int -> int -> unit) -> writer
(** [writer output] is a writer whose block goes out as [output block
    pos len]; [output] must take the [len] bytes from [pos] before it
    returns, as [Buffer.add_subbytes] and [output] do, since the block
    is written again afterwards. *)

val write : writer -> event -> unit
(** Append the event's line to the block. *)

val flush : writer -> unit
(** Hand every line written since the last flush to the output. *)

val event_to_json : event -> string
(** The line {!write} renders for one event, without the newline. *)

val event_of_json : string -> (event, string) result
(** Inverse of {!event_to_json}: reads one line with {!Json.parse} and
    accepts any key order. The line must be exactly one JSON object;
    [seq], [tu] and [index] must be integer numerals. A syntax error
    names its byte offset; a well-formed line of the wrong shape names
    the offending member. Never raises. *)

(** {2 JSON} *)

module Json = Obs.Json
(** The escaper the writer renders strings with and the reader
    {!event_of_json} reads with. bench/e2e renders its rows through
    this alias. *)
