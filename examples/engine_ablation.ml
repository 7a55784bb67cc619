(* Ablation of SCTC's property-checking engines (Sctc.Engine.all) on one
   property. Both step the same AR-automaton table:

   - otf: filled on demand, one transition the first time the run takes
     it (no cost at registration)
   - explicit: explored to its fixpoint at registration (synthesis cost
     up front); the IL printed at the end is this automaton's text form

   Each row registers the property on a fresh checker, but the table is
   kept per domain: explicit, running after otf, explores only the part
   of the automaton otf's run did not visit.

   The paper's TB-100000 column shows verification time dominated by
   AR-automaton generation for large time bounds; this example reproduces
   that trade-off and prints the IL of a small property.

     dune exec examples/engine_ablation.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let run_engine bound engine steps =
  let value = ref 0 in
  let checker = Sctc.Checker.create ~name:"ablation" () in
  Sctc.Checker.register_sampler checker "req" (fun () -> !value mod 97 = 1);
  Sctc.Checker.register_sampler checker "ack" (fun () -> !value mod 97 = 9);
  let property = Printf.sprintf "G (req -> F[%d] ack)" bound in
  let (), synth_time =
    time (fun () ->
        Sctc.Checker.add_property_text ~engine checker ~name:"p" property)
  in
  let (), run_time =
    time (fun () ->
        for _ = 1 to steps do
          incr value;
          Sctc.Checker.step checker
        done)
  in
  (synth_time, run_time, Sctc.Checker.verdict checker "p")

let () =
  print_endline "engine ablation: G (req -> F[b] ack), 200000 trigger steps";
  print_endline "bound   engine       synth(s)   run(s)   verdict";
  List.iter
    (fun bound ->
      List.iter
        (fun (engine_name, engine) ->
          let synth, run, verdict = run_engine bound engine 200_000 in
          Printf.printf "%-7d %-12s %8.3f %8.3f   %s\n" bound engine_name
            synth run
            (Verdict.to_string verdict))
        (List.map
           (fun engine -> (Sctc.Engine.to_string engine, engine))
           Sctc.Engine.all))
    [ 100; 2000; 20000 ];

  (* show the IL artifact for a small property *)
  print_newline ();
  print_endline "IL of G (req -> F[2] ack):";
  let automaton =
    Ar_automaton.synthesize (Sctc.Prop.parse_exn "G (req -> F[2] ack)")
  in
  print_string (Il.to_string (Il.of_automaton ~name:"response" automaton))
