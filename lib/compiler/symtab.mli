(** Debug information produced by the compiler.

    This is what the ESW monitor of approach 1 needs: the memory address of
    every embedded-software variable (step b of the paper's flow: "determine
    the addresses of the variables, which are located in the embedded
    memory") and the id stored into the [fname] tracking variable by each
    function. *)

type t

val build : Minic.Typecheck.info -> t
(** Lay out all non-const globals from {!Cpu.Memory_map.data_base}; a
    hidden [fname] slot is appended when the program does not declare one. *)

val address_of : t -> string -> int
(** Word address of a scalar global or the base address of an array.
    @raise Not_found for unknown names. *)

val find_address : t -> string -> int option

val size_of : t -> string -> int
(** 1 for scalars, the length for arrays. *)

val fname_address : t -> int
(** Address of the function-tracking variable. *)

val func_id : t -> string -> int

val globals : t -> (string * int * int) list
(** [(name, address, size)] in layout order. *)

val data_words : t -> int
(** Total data segment size in words. *)
