(** Propositions over embedded-software state observed through the
    processor memory (the paper's extension of SCTC: the checker monitors
    ESW variables stored in the microprocessor memory model through a
    memory interface, and function sequencing through the instrumented
    [fname] variable). *)

val var_eq : Soc.t -> ?prop_name:string -> string -> int -> Proposition.t
(** [var_eq soc name v]: proposition "[name] == v". Default proposition
    name: ["<name>_eq_<v>"]. *)

val var_pred :
  Soc.t -> prop_name:string -> string -> (int -> bool) -> Proposition.t
(** Arbitrary predicate over one variable. *)

val in_function : Soc.t -> string -> Proposition.t
(** True while [fname] holds the id of the given function — i.e. it is the
    most recently entered function. Proposition name: ["in_<func>"]. *)

val register_all :
  Sctc.Checker.t -> Proposition.t list -> unit
(** Convenience: register a batch of propositions with a checker. *)
