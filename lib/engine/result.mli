(** The uniform outcome record of a verification session.

    Every front end — the CLI, the campaign driver, the benchmark
    harness — consumes this one shape instead of a private ad-hoc
    record per call site. Produced by {!Session.result}. *)

type property = {
  property : string;
  verdict : Verdict.t;  (** verdict at the end of the run *)
  first_final_at : int option;
      (** time unit (cycles / statements) of the first final verdict *)
}

type t = {
  backend : string;  (** {!Session.backend_name} of the producing session *)
  properties : property list;  (** registration order *)
  triggers : int;  (** checker steps over the session's lifetime *)
  time_units : int;  (** cycles / statements consumed since the timer *)
  vt_seconds : float;  (** paper column V.T.(s): wall clock + synthesis *)
  synthesis_seconds : float;  (** AR-automaton generation part *)
  test_cases : int option;  (** completed cases (campaigns only) *)
  timeouts : int;  (** watchdog hits (campaigns only) *)
  coverage : Sctc.Coverage.t option;  (** return coverage (campaigns only) *)
  trace_events : int;
      (** events the session published on its trace bus, counted even
          when no listener is attached — the count a streaming campaign
          sink that reads events receives for this job, recorded here
          so consumers can cross-check emission without retaining the
          event buffers themselves *)
}

val verdict : t -> string -> Verdict.t
(** @raise Invalid_argument for unknown property names (the message
    lists the known ones). *)

val first_final_at : t -> string -> int option
(** @raise Invalid_argument for unknown property names (the message
    lists the known ones). *)

val overall : t -> Verdict.t
(** {!Verdict.combine} over all properties. *)

val completed_cases : t -> int
(** [test_cases], defaulting to 0. *)

val coverage_percent : t -> float
(** Percent of expected return values observed; 0 without coverage. *)

val missing_returns : t -> string list
(** Expected return values never observed; [[]] without coverage. *)

val pp : Format.formatter -> t -> unit
