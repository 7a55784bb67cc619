module Heap = Sim.Heap
module Kernel = Sim.Kernel
module Clock = Sim.Clock

(* Tests for the discrete-event simulation kernel: scheduling order, delta
   cycles, clocks, and heap invariants. *)

let test_heap_ordering () =
  let heap = Heap.create () in
  List.iter (fun (k, v) -> Heap.push heap k v)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (4, "d") ];
  let order = ref [] in
  while not (Heap.is_empty heap) do
    order := Heap.pop heap :: !order
  done;
  (* equal keys pop in insertion order (stability) *)
  Alcotest.(check (list string))
    "sorted stable" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !order)

let test_heap_empty () =
  let heap = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty heap);
  Alcotest.check_raises "no min" Not_found (fun () ->
      ignore (Heap.min_key heap));
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Heap.pop heap))

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let heap = Heap.create () in
      List.iter (fun k -> Heap.push heap k k) keys;
      let rec drain last acc =
        if Heap.is_empty heap then List.rev acc
        else
          let k = Heap.min_key heap in
          if Heap.pop heap <> k || k < last then raise Exit
          else drain k (k :: acc)
      in
      try List.length (drain min_int []) = List.length keys
      with Exit -> false)

let test_spawn_runs () =
  let kernel = Kernel.create () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  Kernel.spawn kernel (fun () -> log "a");
  Kernel.spawn kernel (fun () -> log "b");
  Kernel.run kernel;
  Alcotest.(check (list string)) "both ran in order" [ "a"; "b" ]
    (List.rev !trace)

let test_wait_notify_delta () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  Kernel.spawn kernel (fun () ->
      log "wait";
      Kernel.wait_event ev;
      log "woken");
  Kernel.spawn kernel (fun () ->
      log "notify";
      Kernel.notify ev);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "delta notification wakes in next delta" [ "wait"; "notify"; "woken" ]
    (List.rev !trace);
  Alcotest.(check int) "no time passed" 0 (Kernel.now kernel)

let test_wait_for_accumulates () =
  let kernel = Kernel.create () in
  let times = ref [] in
  Kernel.spawn kernel (fun () ->
      Kernel.wait_for kernel 10;
      times := Kernel.now kernel :: !times;
      Kernel.wait_for kernel 5;
      times := Kernel.now kernel :: !times);
  Kernel.run kernel;
  Alcotest.(check (list int)) "10 then 15" [ 10; 15 ] (List.rev !times);
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "wait_for %d" n)
        (Invalid_argument "Kernel.wait_for: delay must be >= 1")
        (fun () -> Kernel.wait_for kernel n))
    [ 0; -1 ]

(* The order contract of [Kernel]: waiters of one event wake in the order
   they began waiting, events notified in one delta wake in notify order,
   every delta wake-up runs before time advances, and processes due at
   the same time wake in the order they called [wait_for]. Spawn order
   differs from each of these orders. *)
let test_wake_order () =
  let kernel = Kernel.create () in
  let a = Kernel.event kernel "a" and b = Kernel.event kernel "b" in
  let log = ref [] in
  let spawn name body =
    Kernel.spawn kernel (fun () ->
        body ();
        log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log)
  in
  (* begin waiting on [a] at t = 1, 0 and 2 *)
  spawn "p1" (fun () ->
      Kernel.wait_for kernel 1;
      Kernel.wait_event a);
  spawn "p2" (fun () -> Kernel.wait_event a);
  spawn "p3" (fun () ->
      Kernel.wait_for kernel 2;
      Kernel.wait_event a);
  (* waits after [p2] did, on the event notified first *)
  spawn "q" (fun () -> Kernel.wait_event b);
  spawn "notifier" (fun () ->
      Kernel.wait_for kernel 3;
      Kernel.notify b;
      Kernel.notify a);
  spawn "s" (fun () -> Kernel.wait_for kernel 4);
  (* both due at 10: [r1] called wait_for at t = 0, [r2] at t = 6 *)
  spawn "r2" (fun () ->
      Kernel.wait_for kernel 6;
      Kernel.wait_for kernel 4);
  spawn "r1" (fun () -> Kernel.wait_for kernel 10);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "wake order"
    [ "notifier@3"; "q@3"; "p2@3"; "p1@3"; "p3@3"; "s@4"; "r1@10"; "r2@10" ]
    (List.rev !log)

let test_clock_cycles () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 in
  let count = ref 0 in
  Kernel.spawn kernel (fun () ->
      let rec loop () =
        Kernel.wait_event (Clock.posedge clock);
        incr count;
        loop ()
      in
      loop ());
  Kernel.run ~max_time:95 kernel;
  (* posedges at t=0,10,...,90 => 10 observed *)
  Alcotest.(check int) "ten edges observed" 10 !count;
  Alcotest.(check int) "clock counted them" 10 (Clock.cycles clock)

let test_stop_from_process () =
  let kernel = Kernel.create () in
  let steps = ref 0 in
  Kernel.spawn kernel (fun () ->
      let rec loop () =
        incr steps;
        if !steps = 5 then Kernel.stop kernel;
        Kernel.wait_for kernel 1;
        loop ()
      in
      loop ());
  Kernel.run kernel;
  Alcotest.(check int) "stopped after the fifth step" 5 !steps;
  Alcotest.(check int) "at the end of that evaluation phase" 4
    (Kernel.now kernel)

let test_resume_after_max_time () =
  let kernel = Kernel.create () in
  let ticks = ref 0 in
  Kernel.spawn kernel (fun () ->
      let rec loop () =
        incr ticks;
        Kernel.wait_for kernel 10;
        loop ()
      in
      loop ());
  Kernel.run ~max_time:35 kernel;
  let first = !ticks in
  Kernel.run ~max_time:75 kernel;
  Alcotest.(check bool) "made progress on resume" true (!ticks > first)

(* --- methods: the order contract of [spawn_method] and [spawn_periodic] --- *)

(* A method and threads on one event wake in the order they (re)joined
   its queue: [t1] joined before the method and [t2] after it; at t = 1
   the method rejoins at once and [t2] after it, while [t1] rejoins a
   time unit later, behind both. *)
let test_method_wake_order () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let log = ref [] in
  let say name =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  Kernel.spawn kernel (fun () ->
      Kernel.wait_event ev;
      say "t1";
      Kernel.wait_for kernel 1;
      Kernel.wait_event ev;
      say "t1");
  Kernel.spawn_method kernel ev (fun () -> say "m");
  Kernel.spawn kernel (fun () ->
      Kernel.wait_event ev;
      say "t2";
      Kernel.wait_event ev;
      say "t2");
  Kernel.spawn kernel (fun () ->
      Kernel.wait_for kernel 1;
      Kernel.notify ev;
      Kernel.wait_for kernel 2;
      Kernel.notify ev);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "wake order" [ "t1@1"; "m@1"; "t2@1"; "m@3"; "t2@3"; "t1@3" ]
    (List.rev !log)

(* A method spawned by a running thread joins the queue in its own first
   evaluation phase, after the thread, which began waiting in the phase
   that spawned the method. *)
let test_method_joins_when_evaluated () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let log = ref [] in
  let say name =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  Kernel.spawn kernel (fun () ->
      Kernel.spawn_method kernel ev
        ~init:(fun () -> say "m joins")
        (fun () -> say "m");
      say "t waits";
      Kernel.wait_event ev;
      say "t");
  Kernel.spawn kernel (fun () ->
      Kernel.wait_for kernel 1;
      Kernel.notify ev);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "joined after the thread" [ "t waits@0"; "m joins@0"; "t@1"; "m@1" ]
    (List.rev !log)

(* A periodic method fires in its first evaluation phase and then every
   period; at a time several processes are due they wake in the order of
   their [wait_for] calls, the periodic method's taken where its thread
   equivalent would call it: [t1]'s call at 0 precedes [p]'s, [t2]'s at
   7 follows it, and at 30 [q]'s call at 15 precedes [p]'s at 20. *)
let test_periodic_order () =
  let kernel = Kernel.create () in
  let log = ref [] in
  let say name =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  Kernel.spawn kernel (fun () ->
      Kernel.wait_for kernel 10;
      say "t1");
  Kernel.spawn_periodic kernel ~period:10 (fun () -> say "p");
  Kernel.spawn_periodic kernel ~period:15 (fun () -> say "q");
  Kernel.spawn kernel (fun () ->
      Kernel.wait_for kernel 7;
      Kernel.wait_for kernel 3;
      say "t2");
  Kernel.run ~max_time:35 kernel;
  Alcotest.(check (list string))
    "fires at once, then every period"
    [ "p@0"; "q@0"; "t1@10"; "p@10"; "t2@10"; "q@15"; "p@20"; "q@30"; "p@30" ]
    (List.rev !log);
  match Kernel.spawn_periodic kernel ~period:0 ignore with
  | () -> Alcotest.fail "period 0 accepted"
  | exception Invalid_argument _ -> ()

(* [stop] from a method ends the run at the end of the evaluation phase,
   as from a thread: the thread due in the same phase still runs, and
   the run resumes where it stopped. *)
let test_stop_from_method () =
  let kernel = Kernel.create () in
  let ticks = ref 0 and steps = ref 0 in
  Kernel.spawn_periodic kernel ~period:1 (fun () ->
      incr ticks;
      if !ticks = 5 then Kernel.stop kernel);
  Kernel.spawn kernel (fun () ->
      let rec loop () =
        incr steps;
        Kernel.wait_for kernel 1;
        loop ()
      in
      loop ());
  Kernel.run kernel;
  Alcotest.(check (list int)) "stopped after the fifth tick, phase complete"
    [ 5; 5; 4 ]
    [ !ticks; !steps; Kernel.now kernel ];
  Kernel.run ~max_time:6 kernel;
  Alcotest.(check (list int)) "resumed" [ 7; 7; 6 ]
    [ !ticks; !steps; Kernel.now kernel ]

(* a method never suspends: a wait function called from one is rejected
   with [Invalid_argument], not left to escape as [Effect.Unhandled] *)
let test_method_cannot_wait () =
  let attempts =
    [
      ("wait_event", fun _ ev -> Kernel.wait_event ev);
      ("wait_for", fun kernel _ -> Kernel.wait_for kernel 1);
    ]
  in
  List.iter
    (fun (name, wait) ->
      let kernel = Kernel.create () in
      let ev = Kernel.event kernel "ev" in
      Kernel.spawn_method kernel ev (fun () -> wait kernel ev);
      Kernel.spawn kernel (fun () -> Kernel.notify ev);
      Alcotest.check_raises name
        (Invalid_argument
           (Printf.sprintf "Kernel.%s: only a thread process can wait" name))
        (fun () -> Kernel.run kernel);
      let kernel = Kernel.create () in
      Kernel.spawn_periodic kernel ~period:1 (fun () ->
          wait kernel (Kernel.event kernel "ev"));
      Alcotest.check_raises (name ^ ", periodic")
        (Invalid_argument
           (Printf.sprintf "Kernel.%s: only a thread process can wait" name))
        (fun () -> Kernel.run kernel))
    attempts

let test_producer_consumer () =
  (* Two processes rendezvous through events; checks multi-process
     interleaving over many iterations. *)
  let kernel = Kernel.create () in
  let request = Kernel.event kernel "request" in
  let response = Kernel.event kernel "response" in
  let served = ref 0 in
  Kernel.spawn kernel (fun () ->
      let rec loop () =
        Kernel.wait_event request;
        incr served;
        Kernel.notify response;
        loop ()
      in
      loop ());
  Kernel.spawn kernel (fun () ->
      for _ = 1 to 100 do
        Kernel.notify request;
        Kernel.wait_event response
      done;
      Kernel.stop kernel);
  Kernel.run kernel;
  Alcotest.(check int) "served all requests" 100 !served

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    QCheck_alcotest.to_alcotest heap_qcheck;
    Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
    Alcotest.test_case "wait/notify delta" `Quick test_wait_notify_delta;
    Alcotest.test_case "wait_for accumulates" `Quick test_wait_for_accumulates;
    Alcotest.test_case "wake order" `Quick test_wake_order;
    Alcotest.test_case "clock cycles" `Quick test_clock_cycles;
    Alcotest.test_case "stop from process" `Quick test_stop_from_process;
    Alcotest.test_case "resume after max_time" `Quick
      test_resume_after_max_time;
    Alcotest.test_case "producer/consumer rendezvous" `Quick
      test_producer_consumer;
  ]

let methods =
  [
    Alcotest.test_case "wake order with threads" `Quick test_method_wake_order;
    Alcotest.test_case "joins when first evaluated" `Quick
      test_method_joins_when_evaluated;
    Alcotest.test_case "periodic order" `Quick test_periodic_order;
    Alcotest.test_case "stop from a method" `Quick test_stop_from_method;
    Alcotest.test_case "a method cannot wait" `Quick test_method_cannot_wait;
  ]

let () = Alcotest.run "sim" [ ("kernel", suite); ("methods", methods) ]
