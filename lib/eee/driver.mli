(** Constrained-random verification campaigns over the EEPROM-emulation
    software — the experiment engine behind the paper's Fig. 8.

    The driver runs against a {!Verif.Session.t} (assembled by
    {!Harness}): it uses the session's mailbox, variable observation and
    chunked advance. {!install_spec} registers the specification's
    propositions and response properties on the session's checker;
    {!run_campaign} then drives constrained-random test cases against one
    operation and returns the uniform {!Verif.Result.t} (verification
    time, test-case count, return-value coverage — the three columns of
    the paper's tables). When the session carries a live trace bus, every
    measured test case publishes [Test_case_begin]/[Test_case_end] (and
    [Watchdog_fired] on expiry). *)

type config = {
  test_cases : int;
  watchdog_chunks : int;  (** give up on an operation after this many *)
  bound : int option;  (** time bound of the response properties *)
  engine : Sctc.Checker.engine;
      (** checker engine of the response properties; only bench/e2e
          sets it *)
  seed : int;
}

val default_config : config

val install_spec :
  ?bound:int option ->
  ?engine:Sctc.Checker.engine ->
  Verif.Session.t ->
  Eee_spec.op list ->
  unit
(** Register called/return propositions and the response property for each
    operation. Call once per session, before {!run_campaign}. *)

val run_campaign :
  Verif.Session.t -> config -> Eee_spec.op -> Verif.Result.t
(** Drive [config.test_cases] constrained-random invocations of the
    operation (interleaved with random context operations that move the
    emulation through its state space), collecting coverage and the
    property verdicts. Restarts the session's timer, so the result's
    V.T./time-unit columns cover exactly this campaign. *)
