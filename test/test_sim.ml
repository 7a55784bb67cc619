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
  Kernel.spawn_timed kernel (fun () ->
      log "a";
      0);
  Kernel.spawn_method kernel (Kernel.event kernel "ev")
    ~init:(fun () -> log "b")
    ignore;
  Kernel.spawn_timed kernel (fun () ->
      log "c";
      0);
  Kernel.run kernel;
  Alcotest.(check (list string)) "all ran in order" [ "a"; "b"; "c" ]
    (List.rev !trace)

let test_wait_notify_delta () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  Kernel.spawn_method kernel ev
    ~init:(fun () -> log "wait")
    (fun () -> log "woken");
  Kernel.spawn_timed kernel (fun () ->
      log "notify";
      Kernel.notify ev;
      0);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "delta notification wakes in next delta" [ "wait"; "notify"; "woken" ]
    (List.rev !trace);
  Alcotest.(check int) "no time passed" 0 (Kernel.now kernel)

(* a timed process that waits each delay of [delays] in turn, then runs
   [f] and ends *)
let after kernel delays f =
  let rest = ref delays in
  Kernel.spawn_timed kernel (fun () ->
      match !rest with
      | [] ->
        f ();
        0
      | delay :: later ->
        rest := later;
        delay)

let test_wait_for_accumulates () =
  let kernel = Kernel.create () in
  let times = ref [] and delays = ref [ 10; 5; 0 ] in
  Kernel.spawn_timed kernel (fun () ->
      times := Kernel.now kernel :: !times;
      let delay = List.hd !delays in
      delays := List.tl !delays;
      delay);
  Kernel.run kernel;
  Alcotest.(check (list int)) "0, 10 then 15" [ 0; 10; 15 ] (List.rev !times);
  Kernel.run kernel;
  Alcotest.(check (list int)) "then ended" [ 0; 10; 15 ] (List.rev !times);
  Alcotest.(check int) "at 15" 15 (Kernel.now kernel)

(* The order contract of [Kernel]: methods of one event wake in the order
   they began waiting (their first evaluation phase), events notified in
   one delta wake in notify order, every delta wake-up runs before time
   advances, and timed processes due at the same time run in the order
   of the runs that scheduled them. The order of the spawn calls below
   differs from each of these orders. *)
let test_wake_order () =
  let kernel = Kernel.create () in
  let a = Kernel.event kernel "a" and b = Kernel.event kernel "b" in
  let log = ref [] in
  let say name () =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  (* begin waiting on [a] at t = 1, 0 and 2 *)
  after kernel [ 1 ] (fun () -> Kernel.spawn_method kernel a (say "p1"));
  Kernel.spawn_method kernel a (say "p2");
  after kernel [ 2 ] (fun () -> Kernel.spawn_method kernel a (say "p3"));
  (* waits after [p2] did, on the event notified first *)
  Kernel.spawn_method kernel b (say "q");
  after kernel [ 3 ] (fun () ->
      Kernel.notify b;
      Kernel.notify a;
      say "notifier" ());
  after kernel [ 4 ] (say "s");
  (* both due at 10: [r1] was scheduled at t = 0, [r2] at t = 6 *)
  after kernel [ 6; 4 ] (say "r2");
  after kernel [ 10 ] (say "r1");
  Kernel.run kernel;
  Alcotest.(check (list string))
    "wake order"
    [ "notifier@3"; "q@3"; "p2@3"; "p1@3"; "p3@3"; "s@4"; "r1@10"; "r2@10" ]
    (List.rev !log)

let test_clock_cycles () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 in
  let count = ref 0 in
  Kernel.spawn_method kernel (Clock.posedge clock) (fun () -> incr count);
  Kernel.run ~max_time:95 kernel;
  (* posedges at t=0,10,...,90 => 10 observed *)
  Alcotest.(check int) "ten edges observed" 10 !count;
  Alcotest.(check int) "clock counted them" 10 (Clock.cycles clock);
  match Clock.create kernel ~name:"bad" ~period:0 with
  | _ -> Alcotest.fail "period 0 accepted"
  | exception Invalid_argument _ -> ()

let test_stop_from_process () =
  let kernel = Kernel.create () in
  let steps = ref 0 in
  Kernel.spawn_timed kernel (fun () ->
      incr steps;
      if !steps = 5 then Kernel.stop kernel;
      1);
  Kernel.run kernel;
  Alcotest.(check int) "stopped after the fifth step" 5 !steps;
  Alcotest.(check int) "at the end of that evaluation phase" 4
    (Kernel.now kernel)

let test_resume_after_max_time () =
  let kernel = Kernel.create () in
  let ticks = ref 0 in
  Kernel.spawn_timed kernel (fun () ->
      incr ticks;
      10);
  Kernel.run ~max_time:35 kernel;
  let first = !ticks in
  Kernel.run ~max_time:75 kernel;
  Alcotest.(check bool) "made progress on resume" true (!ticks > first)

(* --- methods: the order contract of [spawn_method] among timed processes --- *)

(* Timed processes due at one time all run before the methods they wake,
   whatever the spawn order, and a method spawned by a timed process joins
   in that evaluation phase, behind the methods already waiting: [m1] is
   spawned first but runs after [t] and [u] at 0 and 10, and [m2], spawned
   by [t] at 10, still wakes on [t]'s notification at 10. *)
let test_method_wake_order () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let log = ref [] in
  let say name () =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  Kernel.spawn_method kernel ev (say "m1");
  Kernel.spawn_timed kernel (fun () ->
      say "t" ();
      Kernel.notify ev;
      if Kernel.now kernel = 0 then 10
      else begin
        Kernel.spawn_method kernel ev (say "m2");
        0
      end);
  Kernel.spawn_timed kernel (fun () ->
      say "u" ();
      if Kernel.now kernel = 0 then 10 else 0);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "wake order"
    [ "t@0"; "u@0"; "m1@0"; "t@10"; "u@10"; "m1@10"; "m2@10" ]
    (List.rev !log)

(* A method spawned by a running process joins the queue in its own
   first evaluation phase, not at the spawn: [m] is spawned before [w]
   is first evaluated, yet joins after it. *)
let test_method_joins_when_evaluated () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let log = ref [] in
  let say name () =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  Kernel.spawn_timed kernel (fun () ->
      say "m spawned" ();
      Kernel.spawn_method kernel ev ~init:(say "m joins") (say "m");
      0);
  Kernel.spawn_method kernel ev ~init:(say "w joins") (say "w");
  after kernel [ 1 ] (fun () -> Kernel.notify ev);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "joined after the method evaluated first"
    [ "m spawned@0"; "w joins@0"; "m joins@0"; "w@1"; "m@1" ]
    (List.rev !log)

(* A timed process returning its period runs in its first evaluation
   phase and then every period; at a time several processes are due they
   run in the order of the runs that scheduled them: [t1]'s run at 0
   precedes [p]'s, [t2]'s at 7 follows it, and at 30 [q]'s run at 15
   precedes [p]'s at 20. *)
let test_periodic_order () =
  let kernel = Kernel.create () in
  let log = ref [] in
  let say name =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  after kernel [ 10 ] (fun () -> say "t1");
  Kernel.spawn_timed kernel (fun () ->
      say "p";
      10);
  Kernel.spawn_timed kernel (fun () ->
      say "q";
      15);
  after kernel [ 7; 3 ] (fun () -> say "t2");
  Kernel.run ~max_time:35 kernel;
  Alcotest.(check (list string))
    "fires at once, then every period"
    [ "p@0"; "q@0"; "t1@10"; "p@10"; "t2@10"; "q@15"; "p@20"; "q@30"; "p@30" ]
    (List.rev !log)

(* [stop] from a method ends the run at the end of the evaluation phase:
   the method woken behind it still runs, and the run resumes where it
   stopped. *)
let test_stop_from_method () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:1 in
  let ticks = ref 0 and steps = ref 0 in
  Kernel.spawn_method kernel (Clock.posedge clock) (fun () ->
      incr ticks;
      if !ticks = 5 then Kernel.stop kernel);
  Kernel.spawn_method kernel (Clock.posedge clock) (fun () -> incr steps);
  Kernel.run kernel;
  Alcotest.(check (list int)) "stopped after the fifth tick, phase complete"
    [ 5; 5; 4 ]
    [ !ticks; !steps; Kernel.now kernel ];
  Kernel.run ~max_time:6 kernel;
  Alcotest.(check (list int)) "resumed" [ 7; 7; 6 ]
    [ !ticks; !steps; Kernel.now kernel ]

let test_producer_consumer () =
  (* Two methods rendezvous through events; checks multi-process
     interleaving over many iterations. *)
  let kernel = Kernel.create () in
  let request = Kernel.event kernel "request" in
  let response = Kernel.event kernel "response" in
  let served = ref 0 and asked = ref 0 in
  let ask () =
    if !asked = 100 then Kernel.stop kernel
    else begin
      incr asked;
      Kernel.notify request
    end
  in
  Kernel.spawn_method kernel request (fun () ->
      incr served;
      Kernel.notify response);
  Kernel.spawn_method kernel response ~init:ask ask;
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
    Alcotest.test_case "wake order with timed processes" `Quick
      test_method_wake_order;
    Alcotest.test_case "joins when first evaluated" `Quick
      test_method_joins_when_evaluated;
    Alcotest.test_case "periodic order" `Quick test_periodic_order;
    Alcotest.test_case "stop from a method" `Quick test_stop_from_method;
  ]

let () = Alcotest.run "sim" [ ("kernel", suite); ("methods", methods) ]
