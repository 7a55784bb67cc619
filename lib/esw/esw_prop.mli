(** Propositions over the derived software model (approach 2).

    Unlike {!Platform.Mem_prop}, these read the model's class members
    directly — there is no processor memory; the checker and the model
    share the simulation. As [Mem_prop] resolves addresses, each
    proposition finds its member's slot once, when it is built
    ({!Esw_model.member_reader}), and raises [Invalid_argument] then for
    an unknown or array member. *)

val var_eq : Esw_model.t -> ?prop_name:string -> string -> int -> Proposition.t

val var_pred :
  Esw_model.t -> prop_name:string -> string -> (int -> bool) -> Proposition.t

val in_function : Esw_model.t -> string -> Proposition.t
(** [fname] currently holds the id of the function. *)
