(* The specification side of the case study: operations, their return-code
   sets (the basis of the paper's coverage metric C.(%)), and the FLTL
   property of each operation, extracted — as in the paper — from the
   specification manual:

     G ( <op>_called -> F[b] ( <op> returned one of its legal codes ) )

   which is the paper's shape "F (Read -> F[b] (EEE_OK | ...))" with the
   outer obligation strengthened to all calls. *)

type op =
  | Read
  | Write
  | Startup1
  | Startup2
  | Format
  | Prepare
  | Refresh

let all_ops = [ Read; Write; Startup1; Startup2; Format; Prepare; Refresh ]

let op_name = function
  | Read -> "Read"
  | Write -> "Write"
  | Startup1 -> "Startup1"
  | Startup2 -> "Startup2"
  | Format -> "Format"
  | Prepare -> "Prepare"
  | Refresh -> "Refresh"

let op_code = function
  | Read -> 1
  | Write -> 2
  | Startup1 -> 3
  | Startup2 -> 4
  | Format -> 5
  | Prepare -> 6
  | Refresh -> 7

let op_of_code = function
  | 1 -> Some Read
  | 2 -> Some Write
  | 3 -> Some Startup1
  | 4 -> Some Startup2
  | 5 -> Some Format
  | 6 -> Some Prepare
  | 7 -> Some Refresh
  | _ -> None

(* the CLI's --op: operation names, case-insensitive *)
let op_of_name name =
  List.find_opt
    (fun op ->
      String.lowercase_ascii (op_name op) = String.lowercase_ascii name)
    all_ops

(* the function implementing each operation (fname tracking target) *)
let entry_function = function
  | Read -> "eee_read_op"
  | Write -> "eee_write_op"
  | Startup1 -> "eee_startup1"
  | Startup2 -> "eee_startup2"
  | Format -> "eee_format"
  | Prepare -> "eee_prepare"
  | Refresh -> "eee_refresh"

(* return codes *)
let eee_ok = 0
let eee_busy = 1
let eee_err_init = 2
let eee_err_access = 3
let eee_err_no_instance = 4
let eee_err_pool_full = 5
let eee_err_parameter = 6
let eee_err_not_formatted = 7

let return_name = function
  | 0 -> "EEE_OK"
  | 1 -> "EEE_BUSY"
  | 2 -> "EEE_ERR_INIT"
  | 3 -> "EEE_ERR_ACCESS"
  | 4 -> "EEE_ERR_NO_INSTANCE"
  | 5 -> "EEE_ERR_POOL_FULL"
  | 6 -> "EEE_ERR_PARAMETER"
  | 7 -> "EEE_ERR_NOT_FORMATTED"
  | other -> Printf.sprintf "EEE_UNKNOWN_%d" other

(* the specification's legal return codes per operation *)
let expected_returns = function
  | Read ->
    [ eee_ok; eee_busy; eee_err_init; eee_err_access; eee_err_no_instance;
      eee_err_parameter ]
  | Write ->
    [ eee_ok; eee_busy; eee_err_init; eee_err_access; eee_err_pool_full;
      eee_err_parameter ]
  | Startup1 -> [ eee_ok; eee_busy; eee_err_access; eee_err_not_formatted ]
  | Startup2 -> [ eee_ok; eee_busy; eee_err_access; eee_err_init ]
  | Format -> [ eee_ok; eee_busy; eee_err_access ]
  | Prepare -> [ eee_ok; eee_busy; eee_err_access; eee_err_init ]
  | Refresh -> [ eee_ok; eee_busy; eee_err_access; eee_err_init ]

(* proposition names used in the property texts *)
let called_prop operation = String.lowercase_ascii (op_name operation) ^ "_called"

let return_prop operation code =
  Printf.sprintf "%s_ret_%s"
    (String.lowercase_ascii (op_name operation))
    (String.lowercase_ascii (return_name code))

(* "G (read_called -> F[b] (read_ret_eee_ok | ...))" *)
let property_text ?bound operation =
  let bound_text =
    match bound with None -> "" | Some b -> Printf.sprintf "[%d]" b
  in
  let returns =
    expected_returns operation
    |> List.map (return_prop operation)
    |> String.concat " | "
  in
  Printf.sprintf "G (%s -> F%s (%s))" (called_prop operation) bound_text
    returns

let property_name operation = "resp_" ^ String.lowercase_ascii (op_name operation)
