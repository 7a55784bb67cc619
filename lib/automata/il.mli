(** Intermediate Language (IL) representation of AR-automata.

    SCTC's flow is: property text → AR-automaton in IL form → executable
    monitor. The IL is a flat, serializable automaton description whose
    transition guards are sums of cubes over the proposition vector — the
    representation a SystemC code generator would consume. This module
    converts explicit automata to IL, pretty-prints, and parses the textual
    form back (round-trip stable).

    Monitors step the {!Ar_automaton} itself ({!Monitor.of_automaton}),
    whose transition array is already indexed by the assignment mask; the
    IL is the printed artifact ([tcheck automaton]), and the guard scan
    {!next} over the parsed text is the oracle tests check that automaton
    against. *)

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
    themselves. This is the IL's reference semantics: over
    [parse (to_string (of_automaton ~name a))] it agrees with
    [Ar_automaton.next a] on every state and mask.
    @raise Invalid_argument if no guard matches (malformed IL); the
    message names the automaton and spells the valuation out as a
    proposition assignment ([p=0 q=1 …]), not just the raw mask. *)

val to_string : t -> string

val parse : string -> t
(** Parses the textual form produced by {!to_string}: every state from 0
    up, the initial state and every target defined, every guard as wide
    as [props].
    @raise Loc.Error at the first malformed line, or past the end of the
    text for a missing state. *)

val num_transitions : t -> int
(** Total transition (cube) count — the IL size metric. *)
