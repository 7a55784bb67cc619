(* Discrete-event scheduler with SystemC-like delta cycles.

   A process is a callback: a method runs each time its event is
   notified, a timed process returns the delay to its next run. While it
   is not running it sits in exactly one place: the runnable queue, the
   waiter queue of its event, or the timed heap.

   Every process is numbered when it is spawned and every queue when it
   is made: queue 0 is the runnable queue, and each event owns the next
   number as its waiter queue. A queue is a head and a tail number,
   linked through the [next] slot of each process, so scheduling moves
   numbers between int arrays. An int store needs no write barrier,
   where a pointer stored into a major-heap block calls [caml_modify];
   so no scheduling step allocates or stores a pointer once the tables
   have grown. Only [spawn] stores a pointer, the process's action, and
   growing a table stores the grown array.

   Every queue is first in, first out and the heap is stable, which
   gives the order contract of the interface. *)

type action =
  | Method of {
      waiters : int; (* the queue of its event *)
      init : unit -> unit;
      body : unit -> unit;
      mutable joined : bool;
    }
  | Timed of (unit -> int)

type t = {
  mutable time : int;
  (* by process number; an ended process keeps its slot *)
  mutable actions : action array;
  mutable next : int array;
  mutable processes : int;
  (* by queue number *)
  mutable heads : int array;
  mutable tails : int array;
  mutable queued : bool array; (* in [notified] since the last delta phase *)
  mutable queues : int;
  mutable notified : int array;
      (* delta notifications, in first-notify order, each at most once *)
  mutable notified_count : int;
  timed : Heap.t;
  mutable stop_requested : bool;
}

type event = { name : string; kernel : t; queue : int }

(* the end of every queue *)
let nil = -1
let runnable = 0

(* [array] with room for twice [length] elements, the new ones [filler] *)
let grown array filler length =
  let bigger = Array.make (max 8 (2 * length)) filler in
  Array.blit array 0 bigger 0 length;
  bigger

(* The queue operations run several times a time unit; they are inlined
   into the scheduler's loop. *)
let[@inline] push kernel queue process =
  kernel.next.(process) <- nil;
  let tail = kernel.tails.(queue) in
  if tail = nil then kernel.heads.(queue) <- process
  else kernel.next.(tail) <- process;
  kernel.tails.(queue) <- process

let[@inline] pop kernel queue =
  let process = kernel.heads.(queue) in
  let next = kernel.next.(process) in
  kernel.heads.(queue) <- next;
  if next = nil then kernel.tails.(queue) <- nil;
  process

(* move every process of [src] to the tail of [dst], keeping their order *)
let[@inline] transfer kernel src dst =
  let head = kernel.heads.(src) in
  if head <> nil then begin
    let tail = kernel.tails.(dst) in
    if tail = nil then kernel.heads.(dst) <- head
    else kernel.next.(tail) <- head;
    kernel.tails.(dst) <- kernel.tails.(src);
    kernel.heads.(src) <- nil;
    kernel.tails.(src) <- nil
  end

let[@inline] has_runnable kernel = kernel.heads.(runnable) <> nil

let create () =
  {
    time = 0;
    actions = [||];
    next = [||];
    processes = 0;
    heads = [| nil |];
    tails = [| nil |];
    queued = [| false |];
    queues = 1;
    notified = [||];
    notified_count = 0;
    timed = Heap.create ();
    stop_requested = false;
  }

let now kernel = kernel.time

let event kernel name =
  let queue = kernel.queues in
  if queue = Array.length kernel.heads then begin
    kernel.heads <- grown kernel.heads nil queue;
    kernel.tails <- grown kernel.tails nil queue;
    kernel.queued <- grown kernel.queued false queue
  end;
  kernel.queues <- queue + 1;
  { name; kernel; queue }

let event_name ev = ev.name

let spawn kernel action =
  let process = kernel.processes in
  if process = Array.length kernel.actions then begin
    kernel.actions <- grown kernel.actions action process;
    kernel.next <- grown kernel.next nil process
  end;
  kernel.actions.(process) <- action;
  kernel.processes <- process + 1;
  push kernel runnable process

let spawn_method kernel ?(init = ignore) sensitive body =
  if sensitive.kernel != kernel then
    invalid_arg "Kernel.spawn_method: an event of another kernel";
  spawn kernel
    (Method { waiters = sensitive.queue; init; body; joined = false })

let spawn_timed kernel run = spawn kernel (Timed run)

(* A second notification of an event in the same evaluation phase would
   find its waiters already moved, so the event is queued once. *)
let notify ev =
  let kernel = ev.kernel in
  if not kernel.queued.(ev.queue) then begin
    kernel.queued.(ev.queue) <- true;
    let count = kernel.notified_count in
    if count = Array.length kernel.notified then
      kernel.notified <- grown kernel.notified nil count;
    kernel.notified.(count) <- ev.queue;
    kernel.notified_count <- count + 1
  end

let stop kernel = kernel.stop_requested <- true

(* One evaluation of a process: a method runs [init] or its callback and
   joins its event's queue at the tail; a timed process runs and goes on
   the heap if it asked for another run. A callback may spawn and grow
   the tables, so they are read again after it returns. *)
let[@inline] evaluate kernel process =
  match kernel.actions.(process) with
  | Method m ->
    if m.joined then m.body ()
    else begin
      m.joined <- true;
      m.init ()
    end;
    push kernel m.waiters process
  | Timed run ->
    let delay = run () in
    if delay >= 1 then Heap.push kernel.timed (kernel.time + delay) process

let deliver_notifications kernel =
  for i = 0 to kernel.notified_count - 1 do
    let queue = kernel.notified.(i) in
    kernel.queued.(queue) <- false;
    transfer kernel queue runnable
  done;
  kernel.notified_count <- 0

let rec wake_due kernel time =
  if (not (Heap.is_empty kernel.timed)) && Heap.min_key kernel.timed = time
  then begin
    push kernel runnable (Heap.pop kernel.timed);
    wake_due kernel time
  end

let run ?(max_time = max_int) kernel =
  kernel.stop_requested <- false;
  let rec cycle () =
    (* evaluation phase *)
    while has_runnable kernel do
      evaluate kernel (pop kernel runnable)
    done;
    if not kernel.stop_requested then begin
      (* delta notification phase *)
      deliver_notifications kernel;
      if has_runnable kernel then cycle ()
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
