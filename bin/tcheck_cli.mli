(** The option surface shared by the [tcheck] campaign subcommands
    ([verify], [eee]): worker-pool shape, campaign seed, and the trace /
    metrics output files, declared once instead of per subcommand. *)

type common = {
  jobs : int;  (** worker domains (default 1) *)
  seed : int;  (** campaign master seed *)
  trace_file : string option;  (** [--trace FILE.jsonl] *)
  metrics_file : string option;  (** [--metrics FILE.jsonl] *)
  out_shards : int option;  (** [--out-shards S]: shard the trace *)
  window : int option;  (** [--window W]: reassembly-window bound *)
}

val engine_conv : Sctc.Engine.t Cmdliner.Arg.conv
(** [otf]/[explicit] ({!Sctc.Engine.of_string}). *)

val engine_arg : Sctc.Engine.t Cmdliner.Term.t
(** The [--engine] option over {!engine_conv}, defaulting to
    {!Sctc.Engine.default} ([otf]). *)

val prop_conv : (string * string) Cmdliner.Arg.conv
(** [NAME=EXPR] proposition definitions ([--prop]). *)

val term : default_seed:int -> common Cmdliner.Term.t
(** The [--jobs]/[--seed]/[--trace]/[--metrics]/[--out-shards]/[--window]
    terms combined; [default_seed] keeps each subcommand's historical
    seed default. *)

val registry : common -> Obs.Registry.t
(** A fresh live registry when [--metrics] was given, {!Obs.Registry.null}
    otherwise. *)

val execute :
  common -> Obs.Registry.t -> Verif.Campaign.job list ->
  Verif.Campaign.summary
(** Run the jobs through {!Verif.Campaign.run_stream} with the trace
    flowing to [--trace] (sharded when [--out-shards] was given) while
    workers are still running. [--out-shards] below 1 or without
    [--trace] exits 2 before any job runs; sink failures exit 2 with
    [--trace] named. *)

val finish : common -> Obs.Registry.t -> unit
(** Write the metrics snapshot ([--metrics]); an unwritable file exits
    2 with the option named. *)
