(* The tests' oracle for [Sim.Kernel]: the same interface and order
   contract over pointer-linked queues, checked against it by test_sim.

   A process is a callback: a method runs each time its event is
   notified, a timed process returns the delay to its next run. While it
   is not running it sits in exactly one place: the runnable queue, the
   waiter queue of its event, or the timed set. So each queue is a list
   threaded through the one [next] link of its processes, and scheduling
   is moving a process between these three places. Every queue is first
   in, first out and the timed set is ordered by wake-up time, then by
   the order of the runs that scheduled them, which gives the order
   contract. *)

(* keyed by wake-up time, then by a sequence number per scheduling *)
module Due = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type t = {
  mutable time : int;
  runnable : queue;
  mutable notified : event array;
      (* delta notifications, in first-notify order, each at most once *)
  mutable notified_count : int;
  mutable timed : process Due.t;
  mutable scheduled : int; (* the sequence number of the next [Due] key *)
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
    timed = Due.empty;
    scheduled = 0;
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
   joins its event's queue at the tail; a timed process runs and goes
   into the timed set if it asked for another run. *)
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
    if delay >= 1 then begin
      kernel.timed <-
        Due.add (kernel.time + delay, kernel.scheduled) process kernel.timed;
      kernel.scheduled <- kernel.scheduled + 1
    end

let deliver_notifications kernel =
  for i = 0 to kernel.notified_count - 1 do
    let ev = kernel.notified.(i) in
    ev.queued <- false;
    transfer ev.waiters kernel.runnable
  done;
  kernel.notified_count <- 0

let rec wake_due kernel time =
  match Due.min_binding_opt kernel.timed with
  | Some (((due, _) as key), process) when due = time ->
    kernel.timed <- Due.remove key kernel.timed;
    push kernel.runnable process;
    wake_due kernel time
  | _ -> ()

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
      else
        match Due.min_binding_opt kernel.timed with
        | Some ((time, _), _) when time <= max_time ->
          (* timed advance *)
          kernel.time <- time;
          wake_due kernel time;
          cycle ()
        | _ -> ()
    end
  in
  cycle ()
