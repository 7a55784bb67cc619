(* Backend-agnostic execution interface over MiniC programs.

   Everything outside [lib/minic] runs programs through this module:
   the verification session's reference backend, the derived
   SystemC-like model and the EEE harness all create an [Exec.t] and
   use the same reset/run/step/read/hook surface. The bytecode VM runs
   every typechecked program; the tree-walking interpreter stays
   reachable as the oracle the differential tests compare it against. *)

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

let default_hooks = Interp.default_hooks

type progress = Vm.progress = Ticked | Ended of outcome

(* The interpreter recurses on the OCaml stack, so it can stop between
   statements only as a coroutine: its statement hook performs [Tick],
   and [step] parks the rest of the run in [rest]. *)
type _ Effect.t += Tick : unit Effect.t

type impl =
  | I of {
      mutable env : Interp.env;
      mutable rest : (unit, outcome) Effect.Shallow.continuation option;
    }
  | V of Vm.t

type t = { info : Typecheck.info; impl : impl; mutable hooks : hooks }

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
    | Interp -> I { env = Interp.create info; rest = None }
    | Vm -> V (Vm.create (vm_program info))
  in
  { info; impl; hooks = Interp.default_hooks () }

let set_hooks t hooks = t.hooks <- hooks

let reset t =
  match t.impl with
  | V vm -> Vm.reset vm
  | I i ->
    i.env <- Interp.create t.info;
    i.rest <- None

let run ?fuel ?hooks t ~entry =
  let hooks = match hooks with Some h -> h | None -> t.hooks in
  match t.impl with
  | I i ->
    i.rest <- None;
    Interp.run ?fuel i.env hooks ~entry
  | V vm -> Vm.run ?fuel vm hooks ~entry

let start ~fuel t ~entry =
  let hooks = t.hooks in
  match t.impl with
  | V vm -> Vm.start ~fuel vm hooks ~entry
  | I i ->
    let hooks =
      {
        hooks with
        on_statement =
          (fun stmt ->
            hooks.on_statement stmt;
            Effect.perform Tick);
      }
    in
    let env = i.env in
    i.rest <-
      Some (Effect.Shallow.fiber (fun () -> Interp.run ~fuel env hooks ~entry))

let step t =
  match t.impl with
  | V vm -> Vm.step vm
  | I i -> (
    match i.rest with
    | None -> invalid_arg "Exec.step: no run is paused"
    | Some rest ->
      i.rest <- None;
      Effect.Shallow.continue_with rest ()
        {
          Effect.Shallow.retc = (fun outcome -> Ended outcome);
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, outcome) Effect.Shallow.continuation -> progress) option ->
              match eff with
              | Tick ->
                Some
                  (fun k ->
                    i.rest <- Some k;
                    Ticked)
              | _ -> None);
        })

let read_global t name =
  match t.impl with
  | I i -> Interp.read_global i.env name
  | V vm -> Vm.read_global vm name

let global_reader t name =
  match t.impl with
  | V vm -> Vm.global_reader vm name
  | I i ->
    ignore (Interp.read_global i.env name);
    (* [reset] replaces the interpreter's environment *)
    fun () -> read_global t name

let read_element t name index =
  match t.impl with
  | I i -> Interp.read_element i.env name index
  | V vm -> Vm.read_element vm name index

let globals_snapshot t =
  match t.impl with
  | I i -> Interp.globals_snapshot i.env
  | V vm -> Vm.globals_snapshot vm

let statements_executed t =
  match t.impl with
  | I i -> Interp.statements_executed i.env
  | V vm -> Vm.statements_executed vm
