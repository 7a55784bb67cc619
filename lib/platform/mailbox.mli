(** Request/response mailbox between the testbench and the embedded
    software (a simple doorbell peripheral).

    The testbench posts an operation request; the software polls
    [REQ_VALID], consumes the request, runs the operation and posts the
    result. Register offsets (from the mailbox base):

    {v
      0  REQ_VALID   1 while a request is pending (software clears)
      1  REQ_OP      operation code
      2  REQ_ARG0
      3  REQ_ARG1
      4  RESP_VALID  1 when a response is pending (testbench clears)
      5  RESP_VALUE  the operation's return value
    v}
*)

type t

val create : unit -> t

val device : t -> base:int -> Cpu.Bus.device

(** Testbench side *)

val post_request : t -> op:int -> arg0:int -> arg1:int -> unit
(** @raise Invalid_argument if a request is still pending. *)

val request_pending : t -> bool
val response_ready : t -> bool

val take_response : t -> int
(** Read and clear the response. @raise Invalid_argument if none. *)

(** Register offsets: the device contract that the EEE software's
    mailbox addresses follow, and the names tests address registers by.
    The whole map is exported, [reg_req_arg0] and [reg_req_arg1] too,
    which no OCaml code names. *)

val reg_req_valid : int
val reg_req_op : int
val reg_req_arg0 : int
val reg_req_arg1 : int
val reg_resp_valid : int
val reg_resp_value : int
