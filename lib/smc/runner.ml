module Campaign = Verif.Campaign
module Registry = Obs.Registry

type spec =
  | Fixed of { eps : float; delta : float }
  | Sequential of {
      theta : float;
      delta : float;
      alpha : float;
      beta : float;
      max_samples : int option;
    }

type decision = Estimate | Accept_h0 | Accept_h1

type report = {
  label : string;
  samples : int;
  successes : int;
  p_hat : float;
  decision : decision;
  forced : bool;
  early_stopped : bool;
  chernoff_n : int;
  errors : (string * string) list;
  wall_seconds : float;
  stream : Campaign.stream_stats;
}

(* per-campaign observability: how many samples the estimator drew,
   where a sequential test stopped, and what it decided *)
let record_report metrics report =
  let labels = [ ("campaign", report.label) ] in
  Registry.Counter.add
    (Registry.counter metrics "smc_samples_total" ~labels
       ~help:"samples an SMC estimator consumed")
    report.samples;
  Registry.Counter.add
    (Registry.counter metrics "smc_successes_total" ~labels
       ~help:"samples on which the property held")
    report.successes;
  Registry.Gauge.set
    (Registry.gauge metrics "smc_early_stop_at" ~labels
       ~help:"sample index at which the campaign stopped drawing")
    (float_of_int report.samples);
  Registry.Gauge.set
    (Registry.gauge metrics "smc_decision" ~labels
       ~help:"1 = H0 accepted, -1 = H1 accepted, 0 = point estimate")
    (match report.decision with
    | Accept_h0 -> 1.0
    | Accept_h1 -> -1.0
    | Estimate -> 0.0);
  report

let run ?(metrics = Registry.null) ?workers ?window ?(sinks = [])
    ~label ~job ~succeeded spec =
  match spec with
  | Fixed { eps; delta } ->
    let samples = Estimator.Chernoff.sample_count ~eps ~delta in
    let successes = ref 0 in
    let counter =
      Campaign.sink ~reads_events:false (fun outcome ->
          if succeeded outcome then incr successes)
    in
    let summary =
      Campaign.run_stream ~metrics ?workers ?window
        ~sinks:(sinks @ [ counter ])
        (List.init samples (fun index -> job ~index))
    in
    let estimate =
      Estimator.Chernoff.estimate ~eps ~delta ~samples ~successes:!successes
    in
    record_report metrics
      {
        label;
        samples;
        successes = estimate.Estimator.Chernoff.successes;
        p_hat = estimate.Estimator.Chernoff.p_hat;
        decision = Estimate;
        forced = false;
        early_stopped = false;
        chernoff_n = samples;
        errors = Campaign.errors summary;
        wall_seconds = summary.Campaign.wall_seconds;
        stream = summary.Campaign.stream;
      }
  | Sequential { theta; delta; alpha; beta; max_samples } ->
    let test =
      Estimator.Sprt.create ?max_samples ~theta ~delta ~alpha ~beta ()
    in
    let max_samples = Estimator.Sprt.max_samples test in
    let cancel = Campaign.cancellation () in
    (* verdicts arrive in emission (= job) order; once a Wald boundary
       is crossed the rest of the campaign is cancelled — outcomes of
       jobs already claimed still stream through but are no longer
       consumed by the test *)
    let decider =
      Campaign.sink ~reads_events:false (fun outcome ->
          match Estimator.Sprt.status test with
          | Estimator.Sprt.Decided _ -> ()
          | Estimator.Sprt.Undecided -> (
            match Estimator.Sprt.observe test (succeeded outcome) with
            | Estimator.Sprt.Decided _ -> Campaign.cancel cancel
            | Estimator.Sprt.Undecided -> ()))
    in
    let summary =
      Campaign.run_stream ~metrics ?workers ?window ~cancel
        ~sinks:(sinks @ [ decider ])
        (List.init max_samples (fun index -> job ~index))
    in
    let samples = Estimator.Sprt.samples test in
    record_report metrics
      {
        label;
        samples;
        successes = Estimator.Sprt.successes test;
        p_hat = Estimator.Sprt.p_hat test;
        decision =
          (match Estimator.Sprt.status test with
          | Estimator.Sprt.Decided Estimator.Sprt.H0 -> Accept_h0
          | Estimator.Sprt.Decided Estimator.Sprt.H1 -> Accept_h1
          | Estimator.Sprt.Undecided ->
            (* impossible: truncation forces a decision at max_samples,
               and the campaign submits exactly max_samples jobs *)
            assert false);
        forced = Estimator.Sprt.forced test;
        early_stopped = samples < max_samples;
        chernoff_n = Estimator.Sprt.chernoff_bound ~delta ~alpha ~beta;
        errors = Campaign.errors summary;
        wall_seconds = summary.Campaign.wall_seconds;
        stream = summary.Campaign.stream;
      }

let pp_decision fmt = function
  | Estimate -> Format.pp_print_string fmt "estimate"
  | Accept_h0 -> Format.pp_print_string fmt "H0"
  | Accept_h1 -> Format.pp_print_string fmt "H1"
