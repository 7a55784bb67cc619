module Heap = Sim.Heap
module Kernel = Sim.Kernel
module Clock = Sim.Clock

(* Tests for the discrete-event simulation kernel: scheduling order, delta
   cycles, clocks, and heap invariants. *)

let test_heap_ordering () =
  let heap = Heap.create () in
  List.iter (fun (k, v) -> Heap.push heap k v)
    [ (5, 50); (1, 11); (3, 30); (1, 10); (4, 40) ];
  let order = ref [] in
  while not (Heap.is_empty heap) do
    order := Heap.pop heap :: !order
  done;
  (* equal keys pop in insertion order (stability), not in value order *)
  Alcotest.(check (list int))
    "sorted stable" [ 11; 10; 30; 40; 50 ] (List.rev !order)

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

(* An event notified again in the same evaluation phase, after another
   event, is queued once: each method wakes once, in the order of the
   first notifications, and a later phase notifies it afresh. *)
let test_notify_twice () =
  let kernel = Kernel.create () in
  let a = Kernel.event kernel "a" and b = Kernel.event kernel "b" in
  let log = ref [] in
  let say name () =
    log := Printf.sprintf "%s@%d" name (Kernel.now kernel) :: !log
  in
  Kernel.spawn_method kernel b (say "b1");
  Kernel.spawn_method kernel a (say "a1");
  Kernel.spawn_method kernel a (say "a2");
  after kernel [ 1 ] (fun () ->
      Kernel.notify a;
      Kernel.notify b;
      Kernel.notify a);
  after kernel [ 2 ] (fun () -> Kernel.notify a);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "each method once, first-notification order"
    [ "a1@1"; "a2@1"; "b1@1"; "a1@2"; "a2@2" ]
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

(* [spawn_method] refuses an event of another kernel: the event's number
   would index the wrong kernel's tables. *)
let test_cross_kernel_event () =
  let kernel = Kernel.create () and other = Kernel.create () in
  let foreign = Kernel.event other "foreign" in
  let joined = ref false in
  (match
     Kernel.spawn_method kernel foreign ~init:(fun () -> joined := true) ignore
   with
  | () -> Alcotest.fail "an event of another kernel accepted"
  | exception Invalid_argument _ -> ());
  Kernel.run kernel;
  Alcotest.(check bool) "the refused method never ran" false !joined

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

(* --- differential: [Sim.Kernel] against the pointer-linked oracle --- *)

module type KERNEL = sig
  type t
  type event

  val create : unit -> t
  val now : t -> int
  val event : t -> string -> event

  val spawn_method :
    t -> ?init:(unit -> unit) -> event -> (unit -> unit) -> unit

  val spawn_timed : t -> (unit -> int) -> unit
  val notify : event -> unit
  val stop : t -> unit
  val run : ?max_time:int -> t -> unit
end

(* One run of a process in a random network: the events it notifies, in
   order (the last event has no waiter); whether it calls [stop]; for a
   timed process, the delay it returns (below 1 ends it); and a process
   it spawns. *)
type step = {
  notifies : int list;
  stops : bool;
  delay : int;
  spawns : proc option;
}

(* A process takes one step of its script a run, a method's [init] being
   its first run; once the script is spent a timed process ends and a
   method only logs its runs. So every network comes to rest. *)
and proc =
  | Timed_proc of step list
  | Method_proc of { event : int; init : step; script : step list }

(* [events] waited-on events plus one with no waiter; the network is run
   up to each of [horizons] in turn, then to rest *)
type network = { events : int; procs : proc list; horizons : int list }

let rec show_step { notifies; stops; delay; spawns } =
  Printf.sprintf "{notify [%s]%s delay %d%s}"
    (String.concat ";" (List.map string_of_int notifies))
    (if stops then " stop" else "")
    delay
    (match spawns with None -> "" | Some p -> " spawn " ^ show_proc p)

and show_proc = function
  | Timed_proc script ->
    Printf.sprintf "timed [%s]" (String.concat "; " (List.map show_step script))
  | Method_proc { event; init; script } ->
    Printf.sprintf "method on %d init %s [%s]" event (show_step init)
      (String.concat "; " (List.map show_step script))

let show_network { events; procs; horizons } =
  Printf.sprintf "%d events, horizons [%s]\n%s" events
    (String.concat ";" (List.map string_of_int horizons))
    (String.concat "\n" (List.map show_proc procs))

let gen_network ~events ~procs =
  let open QCheck.Gen in
  (* several timed processes due at one time: delays of 1 to 3 *)
  let step spawns =
    let+ notifies = list_size (int_bound 3) (int_bound events)
    and+ stops = map (fun n -> n = 0) (int_bound 15)
    and+ delay = frequency [ (1, return 0); (5, int_range 1 3) ]
    and+ spawns in
    { notifies; stops; delay; spawns }
  in
  let proc spawns =
    let script = list_size (int_range 1 5) (step spawns) in
    oneof
      [
        map (fun script -> Timed_proc script) script;
        (let+ event = int_bound (events - 1)
         and+ init = step spawns
         and+ script in
         Method_proc { event; init; script });
      ]
  in
  let spawned = proc (return None) in
  let+ procs =
    list_repeat procs
      (proc (frequency [ (6, return None); (1, map Option.some spawned) ]))
  and+ horizons = list_size (int_range 1 3) (int_bound 12) in
  { events; procs; horizons = List.sort compare horizons }

(* The log of one network on one kernel: (process, time) for every run,
   processes numbered in spawn order, and (-1, time) at the end of each
   [run] call. *)
module Replay (K : KERNEL) = struct
  let log network =
    let kernel = K.create () in
    let events =
      Array.init (network.events + 1) (fun i ->
          K.event kernel (string_of_int i))
    in
    let log = ref [] and spawned = ref 0 in
    let rec spawn proc =
      let id = !spawned in
      incr spawned;
      let ran () = log := (id, K.now kernel) :: !log in
      let take step =
        ran ();
        List.iter (fun e -> K.notify events.(e)) step.notifies;
        if step.stops then K.stop kernel;
        Option.iter spawn step.spawns
      in
      match proc with
      | Timed_proc script ->
        let rest = ref script in
        K.spawn_timed kernel (fun () ->
            match !rest with
            | [] ->
              ran ();
              0
            | step :: later ->
              rest := later;
              take step;
              step.delay)
      | Method_proc { event; init; script } ->
        let rest = ref script in
        K.spawn_method kernel events.(event)
          ~init:(fun () -> take init)
          (fun () ->
            match !rest with
            | [] -> ran ()
            | step :: later ->
              rest := later;
              take step)
    in
    List.iter spawn network.procs;
    let ended () = log := (-1, K.now kernel) :: !log in
    List.iter
      (fun max_time ->
        K.run ~max_time kernel;
        ended ())
      network.horizons;
    (* a [stop] may end any call, and the next resumes; a call in which
       no process runs finds the network at rest *)
    let rec to_rest () =
      let before = !log in
      K.run kernel;
      if !log != before then begin
        ended ();
        to_rest ()
      end
    in
    to_rest ();
    List.rev !log
end

module Numbered = Replay (Kernel)
module Linked = Replay (Kernel_oracle)

let same_runs network = Numbered.log network = Linked.log network

let differential_qcheck =
  QCheck.Test.make ~name:"numbered kernel == pointer-linked oracle" ~count:500
    (QCheck.make ~print:show_network
       QCheck.Gen.(
         let* events = int_range 1 4 and* procs = int_range 1 8 in
         gen_network ~events ~procs))
    same_runs

(* a network large enough that every table of the kernel grows several
   times: 320 processes, and those they spawn, on 121 events *)
let test_large_network () =
  let network =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 30 |])
      (gen_network ~events:120 ~procs:320)
  in
  let runs = Numbered.log network in
  Alcotest.(check bool) "every process ran" true (List.length runs > 320);
  Alcotest.(check (list (pair int int))) "same runs" (Linked.log network) runs

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    QCheck_alcotest.to_alcotest heap_qcheck;
    Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
    Alcotest.test_case "wait/notify delta" `Quick test_wait_notify_delta;
    Alcotest.test_case "wait_for accumulates" `Quick test_wait_for_accumulates;
    Alcotest.test_case "wake order" `Quick test_wake_order;
    Alcotest.test_case "notified twice in one phase" `Quick test_notify_twice;
    Alcotest.test_case "clock cycles" `Quick test_clock_cycles;
    Alcotest.test_case "stop from process" `Quick test_stop_from_process;
    Alcotest.test_case "resume after max_time" `Quick
      test_resume_after_max_time;
    Alcotest.test_case "producer/consumer rendezvous" `Quick
      test_producer_consumer;
    Alcotest.test_case "event of another kernel" `Quick
      test_cross_kernel_event;
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

let differential =
  [
    QCheck_alcotest.to_alcotest differential_qcheck;
    Alcotest.test_case "large network" `Quick test_large_network;
  ]

let () =
  Alcotest.run "sim"
    [ ("kernel", suite); ("methods", methods); ("differential", differential) ]
