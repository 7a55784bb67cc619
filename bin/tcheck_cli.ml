(* Tcheck_cli — the option surface shared by the campaign subcommands:
   [tcheck verify], [tcheck eee] and [tcheck smc] declare --jobs, --seed,
   --trace, --metrics, --out-shards and --window here, once, and open
   their trace sinks here. *)

open Cmdliner

type common = {
  jobs : int;
  seed : int;
  trace_file : string option;
  metrics_file : string option;
  out_shards : int option;
  window : int option;
}

let engine_conv =
  let parse s =
    match Sctc.Engine.of_string s with
    | Some engine -> Ok engine
    | None ->
      Error
        (`Msg
           (Printf.sprintf "expected one of %s"
              (String.concat ", "
                 (List.map Sctc.Engine.to_string Sctc.Engine.all))))
  in
  Arg.conv
    ( parse,
      fun fmt engine -> Format.pp_print_string fmt (Sctc.Engine.to_string engine)
    )

let engine_arg =
  let doc =
    "Monitor engine. Both step the property's AR-automaton: $(b,otf) \
     (the default) fills it on demand, one transition the first time a \
     run takes it; $(b,explicit) explores all of it at registration (the \
     automaton $(b,tcheck automaton) prints as IL) and counts that \
     generation time in V.T. Verdicts are identical across engines"
  in
  Arg.(
    value
    & opt engine_conv Sctc.Engine.default
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let prop_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i when i > 0 ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | _ -> Error (`Msg "expected NAME=EXPR")
  in
  Arg.conv (parse, fun fmt (n, e) -> Format.fprintf fmt "%s=%s" n e)

let term ~default_seed =
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Fan the campaign jobs out over N domains (default 1); \
                 verdicts and trace output are identical for any N")
  in
  let seed =
    Arg.(value & opt int default_seed & info [ "seed" ]
           ~doc:"Campaign master seed")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl"
           ~doc:"Write the structured verification trace (triggers, \
                 samples, verdict changes) as JSONL to this file, \
                 streamed in job order while workers are still running; \
                 the file is byte-identical for any --jobs")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics" ]
           ~docv:"FILE.jsonl"
           ~doc:"Record counters, stage timings and latency histograms \
                 (lib/obs) during the run and write the snapshot as JSONL \
                 to this file; validate it with $(b,tcheck metrics)")
  in
  let out_shards =
    Arg.(value & opt (some int) None & info [ "out-shards" ] ~docv:"S"
           ~doc:"Split the streamed --trace output over S files \
                 (FILE.000.jsonl, FILE.001.jsonl, ...); concatenating \
                 them in shard order reproduces the unsharded stream \
                 byte for byte. Requires --trace")
  in
  let window =
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"W"
           ~doc:"Bound of the streaming reassembly window (outcomes a \
                 slow job can park before depositing workers block; \
                 default 2x the pool size, at least 4)")
  in
  let combine jobs seed trace_file metrics_file out_shards window =
    { jobs; seed; trace_file; metrics_file; out_shards; window }
  in
  Term.(const combine $ jobs $ seed $ trace_file $ metrics_file $ out_shards
        $ window)

(* a live registry only when a snapshot was requested, so un-instrumented
   runs keep the null registry's no-op handles *)
let registry common =
  match common.metrics_file with
  | Some _ -> Obs.Registry.create ()
  | None -> Obs.Registry.null

(* The --trace sinks, sharded when --out-shards was given. [jobs] is the
   campaign's job count; smc passes none, since only its runner knows
   how many samples it draws. *)
let trace_sinks ?jobs common metrics =
  let fail message =
    prerr_endline message;
    exit 2
  in
  try
    match (common.trace_file, common.out_shards, jobs) with
    | _, Some shards, _ when shards < 1 -> fail "--out-shards must be >= 1"
    | None, Some _, _ -> fail "--out-shards requires --trace"
    | None, None, _ -> []
    | Some out, None, _ -> [ Verif.Campaign.jsonl_file_sink out ]
    | Some _, Some _, None ->
      fail
        "--out-shards is not supported by smc (its sample count is only \
         known as it runs)"
    | Some out, Some shards, Some jobs ->
      [ Verif.Campaign.sharded_jsonl_sink ~metrics ~shards ~jobs out ]
  with Sys_error msg | Failure msg -> fail ("--trace: " ^ msg)

(* Run a job list with the trace flowing to the --trace file sinks while
   workers are still running. *)
let execute common metrics jobs =
  let sinks = trace_sinks ~jobs:(List.length jobs) common metrics in
  try
    Verif.Campaign.run_stream ~metrics ~workers:common.jobs
      ?window:common.window ~sinks jobs
  with Sys_error msg | Failure msg ->
    Printf.eprintf "--trace: %s\n" msg;
    exit 2

let finish common metrics =
  match common.metrics_file with
  | None -> ()
  | Some out -> (
    try Obs.Export.write_jsonl out metrics
    with Sys_error msg ->
      Printf.eprintf "--metrics: %s\n" msg;
      exit 2)
