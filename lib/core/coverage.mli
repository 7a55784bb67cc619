(** Return-value coverage collection.

    The paper's coverage metric C.(%) is the percentage of the possible
    return values of an operation that were actually observed during the
    constrained-random test campaign (100% = every specified return value
    of the operation was received at least once). *)

type t

val create : name:string -> expected:string list -> t
(** [expected] is the full set of values the specification allows. *)

val observe : t -> string -> unit
(** Record one observation. Values outside [expected] are counted
    separately as unexpected (see {!unexpected}) — receiving one usually
    indicates a specification violation. *)

val observations : t -> int
(** Total number of [observe] calls. *)

val observed : t -> string list
(** Expected values seen so far (sorted). *)

val missing : t -> string list
(** Expected values not seen yet (sorted). *)

val unexpected : t -> string list
(** Observed values outside the expected set (sorted). *)

val percent : t -> float
(** [100. *. |observed| / |expected|]; 100% when [expected] is empty. *)

val reset : t -> unit

val merge : t -> t -> t
(** Union of observations; both inputs must have the same name and expected
    set. @raise Invalid_argument otherwise. *)
