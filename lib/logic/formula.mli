(** FLTL formulas — linear temporal logic with optional time bounds on the
    temporal operators (Ruf et al.'s finite linear-time temporal logic, the
    property language of the SCTC).

    Formulas are hash-consed: structurally equal formulas are physically
    equal and share a unique [id]. Smart constructors perform boolean and
    temporal simplification ([and_ True f = f], [finally (Some 0) f = f],
    ...), which keeps the state space of formula progression small. *)

type t = private { id : int; node : node }

and node =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Next of t
  | Finally of int option * t  (** [F f] / [F[<=b] f] *)
  | Globally of int option * t  (** [G f] / [G[<=b] f] *)
  | Until of int option * t * t  (** [f U g] / [f U[<=b] g] *)
  | Release of int option * t * t  (** [f R g] / [f R[<=b] g] *)

(** {2 Constructors} *)

val tru : t
val fls : t
val prop : string -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val next : t -> t

(** [finally bound f]: [f] must hold within [bound] steps (inclusive of the
    current step; [Some 0] means "now"). [None] is the unbounded [F]. *)
val finally : int option -> t -> t

val globally : int option -> t -> t
val until : int option -> t -> t -> t
val release : int option -> t -> t -> t

(** {2 Observers} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val props : t -> string list
(** Proposition names, sorted, without duplicates. *)

val size : t -> int
(** Number of nodes (shared subterms counted once per occurrence). *)

val max_bound : t -> int option
(** Largest time bound appearing in the formula, if any. *)

val is_propositional : t -> bool
(** No temporal operator. *)

val nnf : t -> t
(** Negation normal form: negation pushed onto propositions. *)

val to_string : t -> string

(** [eval_now f valuation] evaluates a propositional formula.
    @raise Invalid_argument if [f] contains a temporal operator. *)
val eval_now : t -> (string -> bool) -> bool

(** {2 Concurrency diagnostics}

    The cons table is sharded (one mutex per shard, ids from an atomic
    counter) and fronted by a per-domain memo cache, so parallel campaign
    workers construct formulas without serializing through a global lock.
    These counters are cumulative over the process lifetime and summed
    over every domain that ever consed a term. *)

type cons_stats = {
  terms : int;  (** unique hash-consed terms allocated so far *)
  dls_hits : int;  (** constructions served lock-free by a domain cache *)
  dls_misses : int;  (** constructions that had to visit a shard *)
  shard_acquisitions : int;  (** shard-mutex acquisitions *)
  shard_contention : int;  (** acquisitions that found the shard locked *)
  shards : int;  (** number of shards *)
}

val cons_stats : unit -> cons_stats
