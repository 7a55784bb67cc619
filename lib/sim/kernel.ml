(* Discrete-event scheduler with SystemC-like delta cycles.

   A process is a shallow effect continuation. While it is not running it
   sits in exactly one place: the runnable queue, the waiter queue of the
   one event it waits on, or the timed heap. Scheduling is moving it
   between these three; every queue is first in, first out and the heap is
   stable, which gives the order contract of the interface. *)

type process = (unit, unit) Effect.Shallow.continuation

type t = {
  mutable time : int;
  runnable : process Queue.t;
  notified : event Queue.t; (* delta notifications, in notify order *)
  timed : process Heap.t;
  mutable stop_requested : bool;
}

and event = { ev_name : string; ev_kernel : t; waiters : process Queue.t }

let create () =
  {
    time = 0;
    runnable = Queue.create ();
    notified = Queue.create ();
    timed = Heap.create ();
    stop_requested = false;
  }

let now kernel = kernel.time

let event kernel name =
  { ev_name = name; ev_kernel = kernel; waiters = Queue.create () }

let event_name ev = ev.ev_name
let spawn kernel body = Queue.add (Effect.Shallow.fiber body) kernel.runnable

type _ Effect.t +=
  | Wait_event : event -> unit Effect.t
  | Wait_for : t * int -> unit Effect.t

let wait_event ev = Effect.perform (Wait_event ev)

let wait_for kernel n =
  if n < 1 then invalid_arg "Kernel.wait_for: delay must be >= 1";
  Effect.perform (Wait_for (kernel, n))

let notify ev = Queue.add ev ev.ev_kernel.notified
let stop kernel = kernel.stop_requested <- true

(* parks the rest of a process that performed a wait *)
let handler =
  {
    Effect.Shallow.retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait_event ev ->
          Some
            (fun (k : (a, unit) Effect.Shallow.continuation) ->
              Queue.add k ev.waiters)
        | Wait_for (kernel, n) ->
          Some (fun k -> Heap.push kernel.timed (kernel.time + n) k)
        | _ -> None);
  }

let wake ev = Queue.transfer ev.waiters ev.ev_kernel.runnable

let rec wake_due kernel time =
  match Heap.min_key kernel.timed with
  | Some t when t = time ->
    Queue.add (snd (Heap.pop kernel.timed)) kernel.runnable;
    wake_due kernel time
  | Some _ | None -> ()

let run ?(max_time = max_int) kernel =
  kernel.stop_requested <- false;
  let rec cycle () =
    (* evaluation phase *)
    while not (Queue.is_empty kernel.runnable) do
      Effect.Shallow.continue_with (Queue.pop kernel.runnable) () handler
    done;
    if not kernel.stop_requested then begin
      (* delta notification phase *)
      Queue.iter wake kernel.notified;
      Queue.clear kernel.notified;
      if not (Queue.is_empty kernel.runnable) then cycle ()
      else
        (* timed advance *)
        match Heap.min_key kernel.timed with
        | Some time when time <= max_time ->
          kernel.time <- time;
          wake_due kernel time;
          cycle ()
        | Some _ | None -> ()
    end
  in
  cycle ()
