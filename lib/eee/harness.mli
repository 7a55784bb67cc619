(** Sessions binding the campaign driver to the two verification
    approaches. Both run the identical EEPROM-emulation software against
    identical device models; they differ exactly as the paper's approaches
    do — where the software executes and what triggers the checker. Both
    are assembled through {!Verif.Session} and returned booted (the
    approach-1 initialization-flag handshake completed, the approach-2
    model past its initialization chunk). *)

val flash_quick_config : fault_rate:float -> Dataflash.Flash.config
(** The campaign flash geometry (4 x 128 words, program/erase faults at
    [fault_rate], erase failing half as often) with 20x faster
    erase/program timing, for tests that need short busy windows
    without changing what the software sees. *)

val approach1 :
  ?fault_rate:float ->
  ?flash:Dataflash.Flash.config ->
  ?faults:Smc.Faults.t ->
  ?seed:int ->
  ?trace:Verif.Trace.t ->
  ?metrics:Obs.Registry.t ->
  unit ->
  Verif.Session.t
(** Approach 1: compile the software, load it into the SoC, attach the ESW
    monitor (clock trigger + flag handshake), and boot until the software
    raises its initialization flag. {!Verif.Session.advance} runs 60
    cycles. *)

type backend = Vm
(** The one MiniC executor, {!Minic.Vm}. Nothing reads a value of this
    type: [approach2 ?backend] and [plan.backend] stay only because
    bench/e2e passes them, and go with the next change to bench/e2e. *)

val approach2 :
  ?fault_rate:float ->
  ?flash:Dataflash.Flash.config ->
  ?faults:Smc.Faults.t ->
  ?seed:int ->
  ?chunk_statements:int ->
  ?backend:backend ->
  ?trace:Verif.Trace.t ->
  ?metrics:Obs.Registry.t ->
  unit ->
  Verif.Session.t
(** Approach 2: derive the SystemC software model, map flash controller,
    flash window and mailbox into the virtual memory model, attach the
    checker to the program-counter event, and start the model thread.
    [chunk_statements] defaults to 60; [backend] is ignored. *)

(** {2 Parallel campaigns}

    A Fig. 8-style campaign — approaches x operations, each an
    independent constrained-random run — expressed as {!Verif.Campaign}
    jobs. Each job builds its own booted session with stimulus derived
    from {!Stimuli.Prng.of_seed_index} of the plan seed and the job
    index, so campaign results are reproducible for any worker count. *)

type plan = {
  ops : Eee_spec.op list;
  approaches : int list;  (** subset of [[1; 2]] *)
  cases_per_op : int;
  bound : int option;  (** response-property time bound *)
  engine : Sctc.Checker.engine;
      (** checker engine of every job's properties; only bench/e2e sets
          it *)
  fault_rate : float;  (** flash fault-injection probability *)
  faults : Smc.Faults.t;
      (** probabilistic fault stimuli (bit decay, power loss, handshake
          jitter) applied to every job's session; {!Smc.Faults.none}
          (the default) leaves sessions byte-identical to a plan without
          the field *)
  watchdog_chunks : int;
  seed : int;  (** campaign master seed *)
  flash : Dataflash.Flash.config option;
      (** flash geometry/timing override; [None] means the campaign
          flash: 4 x 128 words, slow erase (a wide EEE_BUSY window),
          program/erase faults at [fault_rate] *)
  backend : backend;  (** ignored; see {!backend} *)
  metrics : Obs.Registry.t;
      (** threaded into every job's session, the pool, and the per-job
          [eee_*] counters/histograms labeled [{approach, op}];
          {!Obs.Registry.null} (the default) disables recording *)
}

val default_plan : plan
(** All seven operations on approach 2, 50 cases each, no bound,
    on-the-fly engine, fault rate 0.02, watchdog 200, seed 7, null
    metrics registry. *)

val campaign_jobs : plan -> Verif.Campaign.job list
(** One job per approach x operation, in plan order. Forces the memoized
    compiled/derived program forms on the calling domain first, so
    workers never race to force them. *)

val run_campaign :
  ?workers:int ->
  ?sinks:Verif.Campaign.sink list ->
  plan ->
  Verif.Campaign.summary
(** {!Verif.Campaign.run_stream} over {!campaign_jobs}: outcomes flow
    to [sinks] in job order as soon as ordering allows, under the default
    reassembly window; results and sink bytes are identical for any
    [workers]. *)

(** {2 Statistical model checking}

    {!Smc.Runner} samples: each sample index is one full
    constrained-random campaign of [plan.cases_per_op] cases against a
    fresh session, with stimulus (session seed, driver seed) derived
    from {!Stimuli.Prng.of_seed_index} of the plan seed — sample [i] is
    the same run regardless of worker count or how many samples the
    estimator ends up drawing. *)

val smc_sample_job :
  plan -> approach:int -> op:Eee_spec.op -> index:int -> Verif.Campaign.job
(** The job of sample [index], labelled ["a<approach>/<op>/#<index>"].
    Forces the memoized program forms on the calling domain (call it
    from the domain that builds the job list, as {!Smc.Runner.run}
    does). *)

val smc_succeeded : ?prop:string -> Verif.Campaign.outcome -> bool
(** The Bernoulli verdict of one sample: [true] when the property was
    not violated — {!Verif.Result.overall} by default, the named
    property's verdict with [prop]. A crashed job counts as a failure.
    @raise Invalid_argument for unknown property names (which surfaces
    as the campaign's sink failure). *)
