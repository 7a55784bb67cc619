(** Exporter for {!Registry} snapshots.

    {!to_jsonl} writes one JSON object per metric per line, the
    snapshot schema consumed by [tcheck metrics] and the CI gate:
    {v
      {"metric":NAME,"type":"counter","labels":{...},"value":INT}
      {"metric":NAME,"type":"gauge","labels":{...},"value":NUM}
      {"metric":NAME,"type":"histogram","labels":{...},"count":INT,
       "sum":NUM,"buckets":[{"le":NUM|"+Inf","count":INT},...]}
    v}
    Histogram bucket counts are cumulative; the last bucket has
    [le = "+Inf"] and a count equal to the [count] field.

    The {!Registry.null} registry renders as the empty string. *)

val to_jsonl : Registry.t -> string

val write_jsonl : string -> Registry.t -> unit
(** Write {!to_jsonl} to a file (truncating). *)

(** {2 Snapshot validation} *)

val validate_snapshot_line : string -> (unit, string) result
(** Check one line against the JSONL snapshot schema above, including
    the cumulative-bucket and terminal [+Inf] invariants. The line is
    read with {!Json.parse}, so a malformed line's message names its
    byte offset. Never raises. *)

val validate_snapshot_file : string -> (int, string) result
(** Validate every non-empty line of a snapshot file; [Ok n] is the
    number of metrics seen. [Error] carries the first offending line
    number and reason, or the reason an empty or unreadable file is
    rejected; it does not repeat [path], which the caller names. *)
