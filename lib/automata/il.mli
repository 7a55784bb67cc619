(** Intermediate Language (IL) representation of AR-automata.

    SCTC's flow is: property text → AR-automaton in IL form → executable
    monitor. The IL is a flat, serializable automaton description whose
    transition guards are sums of cubes over the proposition vector — the
    representation a SystemC code generator would consume. This module
    converts explicit automata to IL, pretty-prints, and parses the textual
    form back (round-trip stable), so IL files can be stored next to a
    design and re-loaded without re-synthesis. *)

type kind = Accept | Reject | Pend

type transition = {
  guard : Cube.t list;  (** disjunction of cubes over the proposition order *)
  target : int;
}

type state = { kind : kind; outgoing : transition list }

type t = {
  name : string;
  props : string array;
  initial : int;
  states : state array;
}

val of_automaton : name:string -> Ar_automaton.t -> t
(** Guards are minimized cube covers of the assignment sets per successor.
    Accept/Reject states get no outgoing transitions (they are absorbing). *)

val next : t -> int -> int -> int
(** [next il state mask] follows the transition whose guard covers [mask]
    by scanning the guard cubes in order; absorbing states return
    themselves. This is the reference semantics — monitors step through
    the compiled {!Table} instead, and the two are differentially tested
    against each other.
    @raise Invalid_argument if no guard matches (malformed IL); the
    message names the automaton and spells the valuation out as a
    proposition assignment ([p=0 q=1 …]), not just the raw mask. *)

(** Mask-indexed successor tables compiled from guard lists — the hot-path
    form of {!next}. Width thresholds are shared with [Transition_cache]:
    states over ≤[max_dense_props] propositions get an eagerly filled
    dense array (one array read per step), widths up to
    [max_cached_props] a lazily filled hash over the guard scan, and
    anything wider falls back to computing per step. *)
module Table : sig
  type t

  val of_automaton : name:string -> Ar_automaton.t -> t
  (** Compile directly from an explicit automaton, skipping cube covers
      entirely (the automaton's delta is already mask-indexed). *)

  val next : t -> int -> int -> int
  (** Same contract (and same missing-guard diagnostics) as {!Il.next}. *)

  val name : t -> string
  val props : t -> string array
  val initial : t -> int

  val num_states : t -> int

  val dense_states : t -> int
  (** How many states compiled to the dense fast path (introspection for
      tests and bench tables). *)
end

val compile : t -> Table.t
(** Compile this IL description's guard lists into a {!Table}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Parse_error of string

val parse : string -> t
(** Parses the textual form produced by {!pp}. *)

val num_transitions : t -> int
(** Total transition (cube) count — the IL size metric. *)
