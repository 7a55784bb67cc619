(* Backend-agnostic execution interface over MiniC programs.

   Everything outside [lib/minic] runs programs through this module:
   the verification session's reference backend, the derived
   SystemC-like model and the EEE harness all create an [Exec.t] and
   use the same reset/run/read/hook surface. The bytecode VM runs every
   typechecked program; the tree-walking interpreter stays reachable as
   the oracle the differential tests compare it against. *)

type kind = Interp | Vm

type outcome = Interp.outcome =
  | Finished of int option
  | Halted
  | Fuel_exhausted

type hooks = Interp.hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;
  on_function_entry : string -> unit;
}

exception Assertion_failed = Interp.Assertion_failed
exception Assumption_failed = Interp.Assumption_failed
exception Runtime_error = Interp.Runtime_error
exception Out_of_fuel = Interp.Out_of_fuel

let default_hooks = Interp.default_hooks

type impl = I of Interp.env | V of Vm.t

type t = { info : Typecheck.info; mutable impl : impl; mutable hooks : hooks }

let to_string = function Interp -> "interp" | Vm -> "vm"

(* The bytecode of [info], compiled by the first VM session of that info
   and shared by every later one: a campaign of thousands of sessions
   over one checked program lowers it once. Two domains may both find
   the slot empty and both compile; [compare_and_set] stores exactly one
   program and the loser adopts it, so every session of one info runs
   the same [Bytecode.t]. Sharing is safe because a VM writes only its
   own frames, globals and array copies, never the program. *)
let vm_program info =
  let slot = Typecheck.vm_program info in
  match Atomic.get slot with
  | Some prog -> prog
  | None ->
    let prog = Compile.compile info in
    if Atomic.compare_and_set slot None (Some prog) then prog
    else Option.get (Atomic.get slot)

let create ?(backend = Vm) info =
  let impl =
    match backend with
    | Interp -> I (Interp.create info)
    | Vm -> V (Vm.create (vm_program info))
  in
  { info; impl; hooks = Interp.default_hooks () }

let set_hooks t hooks = t.hooks <- hooks

let reset t =
  match t.impl with
  | V vm -> Vm.reset vm
  | I _ -> t.impl <- I (Interp.create t.info)

let run ?fuel ?hooks t ~entry =
  let hooks = match hooks with Some h -> h | None -> t.hooks in
  match t.impl with
  | I env -> Interp.run ?fuel env hooks ~entry
  | V vm -> Vm.run ?fuel vm hooks ~entry

let call ?hooks t ~fuel name args =
  let hooks = match hooks with Some h -> h | None -> t.hooks in
  match t.impl with
  | I env -> Interp.call env hooks ~fuel name args
  | V vm -> Vm.call vm hooks ~fuel name args

let read_global t name =
  match t.impl with
  | I env -> Interp.read_global env name
  | V vm -> Vm.read_global vm name

let write_global t name value =
  match t.impl with
  | I env -> Interp.write_global env name value
  | V vm -> Vm.write_global vm name value

let read_element t name index =
  match t.impl with
  | I env -> Interp.read_element env name index
  | V vm -> Vm.read_element vm name index

let globals_snapshot t =
  match t.impl with
  | I env -> Interp.globals_snapshot env
  | V vm -> Vm.globals_snapshot vm

let statements_executed t =
  match t.impl with
  | I env -> Interp.statements_executed env
  | V vm -> Vm.statements_executed vm
