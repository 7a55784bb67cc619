(** Statistical model checking over streaming campaigns.

    A run turns a family of independent verification jobs (one per
    sample index, stimulus derived from the index — see
    {!Stimuli.Prng.of_seed_index}) into a quantitative verdict about
    [p = P(property holds on a sampled run)]:

    - {!Fixed} — draw the Chernoff–Hoeffding sample count for
      [(eps, delta)] and report the point estimate [p_hat ± eps];
    - {!Sequential} — Wald's SPRT of [H0: p >= theta + delta] against
      [H1: p <= theta - delta], consuming verdicts in emission order
      from {!Verif.Campaign.run_stream} and cancelling the remaining
      jobs the moment a boundary is crossed — early stopping rides on
      the campaign pool's cancellation, so the distance between
      "hypothesis decided" and "workers idle" is one job per worker.

    Sample verdicts are read by a [succeeded] predicate on raw campaign
    outcomes; a crashed job counts however the predicate says (the EEE
    wiring counts it as a failure). *)

type spec =
  | Fixed of { eps : float; delta : float }
      (** accuracy [eps], confidence [delta]:
          [P(|p_hat - p| > eps) <= delta] *)
  | Sequential of {
      theta : float;  (** threshold under test *)
      delta : float;  (** indifference half-width *)
      alpha : float;  (** max P(accept H1 | H0 true) *)
      beta : float;  (** max P(accept H0 | H1 true) *)
      max_samples : int option;
          (** truncation point; default
              {!Estimator.Sprt.chernoff_bound} *)
    }

type decision =
  | Estimate  (** {!Fixed} mode: no hypothesis, just [p_hat] *)
  | Accept_h0
  | Accept_h1

type report = {
  label : string;
  samples : int;  (** verdicts the estimator consumed *)
  successes : int;
  p_hat : float;
  decision : decision;
  forced : bool;  (** decision came from truncation (see {!Estimator.Sprt}) *)
  early_stopped : bool;  (** decided before the truncation point *)
  chernoff_n : int;
      (** the fixed-sample-size bound for the same parameters — what
          the campaign would have cost without sequential testing *)
  errors : (string * string) list;  (** crashed jobs, label x exception *)
  wall_seconds : float;
  stream : Verif.Campaign.stream_stats;
      (** the underlying streaming campaign's stats; [cancelled_jobs]
          is the work early stopping saved *)
}

val run :
  ?metrics:Obs.Registry.t ->
  ?workers:int ->
  ?window:int ->
  ?sinks:Verif.Campaign.sink list ->
  label:string ->
  job:(index:int -> Verif.Campaign.job) ->
  succeeded:(Verif.Campaign.outcome -> bool) ->
  spec ->
  report
(** Execute the campaign for [spec]. [job ~index] builds sample
    [index]'s job; [sinks] (e.g. a trace file sink) observe every
    emitted outcome ahead of the estimator. The estimator's own sink
    reads only results: [succeeded] sees [events = []] unless one of
    [sinks] reads events, so a campaign without them buffers no trace.
    In {!Sequential} mode
    cancellation reacts within one job per worker. With a live
    [metrics] registry the run records [smc_samples_total],
    [smc_successes_total], [smc_early_stop_at] and [smc_decision],
    labelled [{campaign=label}].

    A sink failure inside the campaign resurfaces as the campaign's
    [Failure] even when the sequential test decided and cancelled
    first. @raise Invalid_argument on invalid spec parameters. *)

val pp_decision : Format.formatter -> decision -> unit
