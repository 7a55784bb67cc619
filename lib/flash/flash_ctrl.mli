(** Memory-mapped controller front end for the {!Flash} model.

    This is the hardware interface the Data Flash Access layer (DFALib) of
    the case study talks to. Register map (word offsets from the base):

    {v
      0  CMD     write: 1 = program word  2 = erase block  3 = clear fault
      1  ADDR    word address (for program) / block number (for erase/blank)
      2  DATA    write: value to program; read: flash cell at ADDR
      3  STATUS  read: 0 ready, 1 busy, 2 fault
      4  RESULT  read: acceptance of last CMD: 0 ok, 1 busy, 2 not erased,
                 3 bad address
      5  BLANK   read: 1 when block ADDR is fully erased
      6  GEOM_B  read: number of blocks
      7  GEOM_W  read: words per block
      8  DECAYS  read: bits decayed by the fault-injection overlay
      9  PLOSS   read: operations torn by an injected power loss
    v}

    A separate read-only window maps the whole flash array for direct reads
    (the paper's software reads flash through direct memory access). *)

type t

val create : Flash.t -> t

val flash : t -> Flash.t

val ctrl_device : t -> base:int -> Cpu.Bus.device
(** The 10-register controller at [base]. *)

val window_device : t -> base:int -> size:int -> Cpu.Bus.device
(** Read-only window of the first [size] flash words at [base]. Writes into
    the window are ignored (like writes to a ROM region). *)

(** Register offsets and codes, for software and tests. They are the
    device contract that the EEE software's register addresses follow,
    so the whole map is exported, including the values no OCaml code
    names ([reg_decays], [reg_power_losses], [cmd_erase],
    [cmd_clear_fault], [status_fault], [result_busy],
    [result_not_erased]). *)

val reg_cmd : int
val reg_addr : int
val reg_data : int
val reg_status : int
val reg_result : int
val reg_blank : int
val reg_geom_blocks : int
val reg_geom_words : int
val reg_decays : int
val reg_power_losses : int

val cmd_program : int
val cmd_erase : int
val cmd_clear_fault : int

val status_ready : int
val status_busy : int
val status_fault : int

val result_ok : int
val result_busy : int
val result_not_erased : int
val result_bad_address : int
