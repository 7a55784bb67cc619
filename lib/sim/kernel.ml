(* Discrete-event scheduler with SystemC-like delta cycles.

   A process is a callback: a method runs each time its event is
   notified, a timed process returns the delay to its next run. While it
   is not running it sits in exactly one place: the runnable queue, the
   waiter queue of its event, or the timed heap. Scheduling is moving it
   between these three; every queue is first in, first out and the heap
   is stable, which gives the order contract of the interface. *)

type t = {
  mutable time : int;
  runnable : process Queue.t;
  notified : event Queue.t; (* delta notifications, in notify order *)
  timed : process Heap.t;
  mutable stop_requested : bool;
}

and event = { ev_name : string; ev_kernel : t; waiters : process Queue.t }

and process =
  | Method of {
      sensitive : event;
      init : unit -> unit;
      body : unit -> unit;
      mutable joined : bool;
    }
  | Timed of (unit -> int)

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

let spawn_method kernel ?(init = ignore) sensitive body =
  Queue.add (Method { sensitive; init; body; joined = false }) kernel.runnable

let spawn_timed kernel run = Queue.add (Timed run) kernel.runnable
let notify ev = Queue.add ev ev.ev_kernel.notified
let stop kernel = kernel.stop_requested <- true

(* One evaluation of a process: a method runs [init] or its callback and
   joins its event's queue at the tail; a timed process runs and goes on
   the heap if it asked for another run. *)
let evaluate kernel process =
  match process with
  | Method m ->
    if m.joined then m.body ()
    else begin
      m.joined <- true;
      m.init ()
    end;
    Queue.add process m.sensitive.waiters
  | Timed run ->
    let delay = run () in
    if delay >= 1 then Heap.push kernel.timed (kernel.time + delay) process

let wake ev = Queue.transfer ev.waiters ev.ev_kernel.runnable

let rec wake_due kernel time =
  if (not (Heap.is_empty kernel.timed)) && Heap.min_key kernel.timed = time
  then begin
    Queue.add (Heap.pop kernel.timed) kernel.runnable;
    wake_due kernel time
  end

let run ?(max_time = max_int) kernel =
  kernel.stop_requested <- false;
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
