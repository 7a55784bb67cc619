(* Discrete-event scheduler with SystemC-like delta cycles.

   A process is a callback: a method runs each time its event is
   notified, a timed process returns the delay to its next run. While it
   is not running it sits in exactly one place: the runnable queue, the
   waiter queue of its event, or the timed heap. So each queue is a list
   threaded through the one [next] link of its processes, and scheduling
   is moving a process between these three places without allocating.
   Every queue is first in, first out and the heap is stable, which
   gives the order contract of the interface. *)

type t = {
  mutable time : int;
  runnable : queue;
  mutable notified : event array;
      (* delta notifications, in first-notify order, each at most once *)
  mutable notified_count : int;
  timed : process Heap.t;
  mutable stop_requested : bool;
}

and event = {
  ev_name : string;
  ev_kernel : t;
  waiters : queue;
  mutable queued : bool; (* in [notified] since the last delta phase *)
}

and queue = { mutable head : process; mutable tail : process }

and process = { mutable next : process; action : action }

and action =
  | Method of {
      sensitive : event;
      init : unit -> unit;
      body : unit -> unit;
      mutable joined : bool;
    }
  | Timed of (unit -> int)

(* the end of every queue; never scheduled *)
let rec nil = { next = nil; action = Timed (fun () -> 0) }

let queue () = { head = nil; tail = nil }
let is_empty q = q.head == nil

let push q process =
  process.next <- nil;
  if q.tail == nil then q.head <- process else q.tail.next <- process;
  q.tail <- process

let pop q =
  let process = q.head in
  q.head <- process.next;
  if q.head == nil then q.tail <- nil;
  process

(* move every process of [src] to the tail of [dst], keeping their order *)
let transfer src dst =
  if not (is_empty src) then begin
    if dst.tail == nil then dst.head <- src.head else dst.tail.next <- src.head;
    dst.tail <- src.tail;
    src.head <- nil;
    src.tail <- nil
  end

let create () =
  {
    time = 0;
    runnable = queue ();
    notified = [||];
    notified_count = 0;
    timed = Heap.create ();
    stop_requested = false;
  }

let now kernel = kernel.time

let event kernel name =
  { ev_name = name; ev_kernel = kernel; waiters = queue (); queued = false }

let event_name ev = ev.ev_name

let spawn kernel action = push kernel.runnable { next = nil; action }

let spawn_method kernel ?(init = ignore) sensitive body =
  spawn kernel (Method { sensitive; init; body; joined = false })

let spawn_timed kernel run = spawn kernel (Timed run)

(* A second notification of an event in the same evaluation phase would
   find its waiters already moved, so the event is queued once. *)
let notify ev =
  if not ev.queued then begin
    ev.queued <- true;
    let kernel = ev.ev_kernel in
    let count = kernel.notified_count in
    if count = Array.length kernel.notified then begin
      let grown = Array.make (max 8 (2 * count)) ev in
      Array.blit kernel.notified 0 grown 0 count;
      kernel.notified <- grown
    end;
    kernel.notified.(count) <- ev;
    kernel.notified_count <- count + 1
  end

let stop kernel = kernel.stop_requested <- true

(* One evaluation of a process: a method runs [init] or its callback and
   joins its event's queue at the tail; a timed process runs and goes on
   the heap if it asked for another run. *)
let evaluate kernel process =
  match process.action with
  | Method m ->
    if m.joined then m.body ()
    else begin
      m.joined <- true;
      m.init ()
    end;
    push m.sensitive.waiters process
  | Timed run ->
    let delay = run () in
    if delay >= 1 then Heap.push kernel.timed (kernel.time + delay) process

let deliver_notifications kernel =
  for i = 0 to kernel.notified_count - 1 do
    let ev = kernel.notified.(i) in
    ev.queued <- false;
    transfer ev.waiters kernel.runnable
  done;
  kernel.notified_count <- 0

let rec wake_due kernel time =
  if (not (Heap.is_empty kernel.timed)) && Heap.min_key kernel.timed = time
  then begin
    push kernel.runnable (Heap.pop kernel.timed);
    wake_due kernel time
  end

let run ?(max_time = max_int) kernel =
  kernel.stop_requested <- false;
  let rec cycle () =
    (* evaluation phase *)
    while not (is_empty kernel.runnable) do
      evaluate kernel (pop kernel.runnable)
    done;
    if not kernel.stop_requested then begin
      (* delta notification phase *)
      deliver_notifications kernel;
      if not (is_empty kernel.runnable) then cycle ()
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
