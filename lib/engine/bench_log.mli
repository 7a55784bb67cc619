(** Reader/writer for the [BENCH_campaign.json] bench trajectory.

    The bench harness appends one flat JSON object per round, tagged
    with its ["table"]; the file spans the repository's whole history.
    Lines are read with {!Obs.Json.parse}, so numbers follow JSON's
    grammar, the [%.6g] scientific notation the rows are written with
    ([1.33827e+06]) included. Only bench/main.exe, bench/e2e and
    test_bench_log use it; it moves under bench/ when bench/e2e next
    changes. *)

type value = Number of float | Bool of bool | String of string | Null

type row = {
  table : string;  (** the ["table"] tag *)
  fields : (string * value) list;  (** in line order, ["table"] included *)
}

val parse_line : string -> (row, string) result
(** Parse one trajectory line: one JSON object whose members are all
    scalars (nested containers are not part of the row format and are
    rejected) and which has a string ["table"] member. A syntax error
    names its byte offset. Never raises. *)

val load : string -> (row list, string) result
(** Every row of a trajectory file, blank lines skipped; the first
    malformed line fails the load with [file:line: message].
    @raise Sys_error when the file cannot be opened. *)

(** {2 Field accessors} — [None] when absent or of another kind. *)

val field : row -> string -> value option
val number : row -> string -> float option
val int_field : row -> string -> int option
val bool_field : row -> string -> bool option
val str_field : row -> string -> string option

(** {2 Writing} *)

val render : table:string -> (string * string) list -> string
(** One trajectory line from pre-rendered {!Obs.Json} member
    values, with the uniform [("table", table)] tag placed first.
    @raise Invalid_argument when [members] already contains ["table"]. *)
