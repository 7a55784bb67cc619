(* Discrete-event scheduler with SystemC-like delta cycles.

   A process is a thread (a shallow effect continuation) or a method (a
   callback run to completion). While it is not running it sits in
   exactly one place: the runnable queue, the waiter queue of the one
   event it waits on, or the timed heap. Scheduling is moving it between
   these three; every queue is first in, first out and the heap is
   stable, which gives the order contract of the interface. A method
   moves exactly as its thread equivalent would: it joins its event's
   queue where the thread calls [wait_event], and the heap where the
   thread calls [wait_for]. *)

type t = {
  mutable time : int;
  runnable : process Queue.t;
  notified : event Queue.t; (* delta notifications, in notify order *)
  timed : process Heap.t;
  mutable stop_requested : bool;
  mutable running : process; (* the thread being resumed, or [no_thread] *)
}

and event = { ev_name : string; ev_kernel : t; waiters : process Queue.t }

and process =
  | Thread of { mutable resume : (unit, unit) Effect.Shallow.continuation }
  | Method of {
      sensitive : event;
      init : unit -> unit;
      body : unit -> unit;
      mutable joined : bool;
    }
  | Periodic of { period : int; tick : unit -> unit }

(* what [running] holds while no thread runs; never resumed *)
let no_thread = Thread { resume = Effect.Shallow.fiber ignore }

let create () =
  {
    time = 0;
    runnable = Queue.create ();
    notified = Queue.create ();
    timed = Heap.create ();
    stop_requested = false;
    running = no_thread;
  }

let now kernel = kernel.time

let event kernel name =
  { ev_name = name; ev_kernel = kernel; waiters = Queue.create () }

let event_name ev = ev.ev_name

let spawn kernel body =
  Queue.add (Thread { resume = Effect.Shallow.fiber body }) kernel.runnable

let spawn_method kernel ?(init = ignore) sensitive body =
  Queue.add (Method { sensitive; init; body; joined = false }) kernel.runnable

let spawn_periodic kernel ~period tick =
  if period < 1 then invalid_arg "Kernel.spawn_periodic: period must be >= 1";
  Queue.add (Periodic { period; tick }) kernel.runnable

type _ Effect.t +=
  | Wait_event : event -> unit Effect.t
  | Wait_for : t * int -> unit Effect.t

let check_thread kernel what =
  if kernel.running == no_thread then
    invalid_arg ("Kernel." ^ what ^ ": only a thread process can wait")

let wait_event ev =
  check_thread ev.ev_kernel "wait_event";
  Effect.perform (Wait_event ev)

let wait_for kernel n =
  if n < 1 then invalid_arg "Kernel.wait_for: delay must be >= 1";
  check_thread kernel "wait_for";
  Effect.perform (Wait_for (kernel, n))

let notify ev = Queue.add ev ev.ev_kernel.notified
let stop kernel = kernel.stop_requested <- true

(* the running thread, with the rest of its body stored for resumption *)
let park kernel k =
  let thread = kernel.running in
  (match thread with
  | Thread t -> t.resume <- k
  | Method _ | Periodic _ -> assert false);
  thread

(* parks the rest of a thread that performed a wait *)
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
              Queue.add (park ev.ev_kernel k) ev.waiters)
        | Wait_for (kernel, n) ->
          Some
            (fun k -> Heap.push kernel.timed (kernel.time + n) (park kernel k))
        | _ -> None);
  }

(* One evaluation of a process: a thread runs to its next wait, a method
   runs its callback and takes the place its thread equivalent would. *)
let evaluate kernel process =
  match process with
  | Thread t ->
    kernel.running <- process;
    Effect.Shallow.continue_with t.resume () handler;
    kernel.running <- no_thread
  | Method m ->
    if m.joined then m.body ()
    else begin
      m.joined <- true;
      m.init ()
    end;
    Queue.add process m.sensitive.waiters
  | Periodic p ->
    p.tick ();
    Heap.push kernel.timed (kernel.time + p.period) process

let wake ev = Queue.transfer ev.waiters ev.ev_kernel.runnable

let rec wake_due kernel time =
  if (not (Heap.is_empty kernel.timed)) && Heap.min_key kernel.timed = time
  then begin
    Queue.add (Heap.pop kernel.timed) kernel.runnable;
    wake_due kernel time
  end

let run ?(max_time = max_int) kernel =
  kernel.stop_requested <- false;
  (* a thread whose exception escaped the last run is still recorded *)
  kernel.running <- no_thread;
  let rec cycle () =
    (* evaluation phase *)
    while not (Queue.is_empty kernel.runnable) do
      evaluate kernel (Queue.pop kernel.runnable)
    done;
    if not kernel.stop_requested then begin
      (* delta notification phase *)
      Queue.iter wake kernel.notified;
      Queue.clear kernel.notified;
      if not (Queue.is_empty kernel.runnable) then cycle ()
      else if not (Heap.is_empty kernel.timed) then begin
        (* timed advance *)
        let time = Heap.min_key kernel.timed in
        if time <= max_time then begin
          kernel.time <- time;
          wake_due kernel time;
          cycle ()
        end
      end
    end
  in
  cycle ()
