(** Propositions: named boolean probes over arbitrary system state.

    This is the OCaml rendering of the paper's [Proposition] base class
    (Fig. 1): a proposition must evaluate to true or false, may carry state
    (e.g. edge detectors), and can be cloned. The checker samples
    propositions to obtain the current system state; their values feed the
    boolean layer of the temporal properties. *)

type t

(** [make name sample] builds a stateless proposition. *)
val make : string -> (unit -> bool) -> t

(** [make_stateful name ~clone ~reset sample] builds a proposition carrying
    state; [clone] must produce an independent copy and [reset] must restore
    the initial state. *)
val make_stateful :
  string -> clone:(unit -> t) -> ?reset:(unit -> unit) -> (unit -> bool) -> t

val name : t -> string

val is_true : t -> bool
(** Evaluate the proposition against the current system state. *)

val is_false : t -> bool

val clone : t -> t
(** Independent copy; for stateless propositions this is the identity. *)

val reset : t -> unit
(** Restore initial state (no-op for stateless propositions). *)

(** {2 Combinators} *)

val const : string -> bool -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t

(** [rose name p] is a stateful edge detector: true exactly when [p] is true
    now and was false at the previous sample. The first sample compares
    against an assumed previous value of [false]. *)
val rose : string -> t -> t

(** {2 Tables} *)

(** A table binds proposition names (as used in property texts) to probes. *)
module Table : sig
  type table

  val create : unit -> table

  (** [register table prop] adds [prop].
      @raise Invalid_argument on duplicate names. *)
  val register : table -> t -> unit

  val find : table -> string -> t option
  val find_exn : table -> string -> t
  val names : table -> string list
  val size : table -> int
end
