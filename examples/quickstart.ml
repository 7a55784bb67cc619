(* Quickstart: verify a temporal property of a small embedded C program in
   a few lines, using approach 2 (the derived software model).

     dune exec examples/quickstart.exe

   The program is a little traffic-light controller; the property says the
   light never jumps from green (0) to red (2) without passing yellow (1),
   and that every red phase is over within 40 statements. *)

let traffic_light =
  {|
    int light;      /* 0 = green, 1 = yellow, 2 = red */
    int timer;

    void step(void) {
      timer = timer + 1;
      if (light == 0 && timer >= 5) { light = 1; timer = 0; }
      else if (light == 1 && timer >= 2) { light = 2; timer = 0; }
      else if (light == 2 && timer >= 4) { light = 0; timer = 0; }
    }

    void main(void) {
      light = 0;
      timer = 0;
      while (true) { step(); }
    }
  |}

let () =
  (* 1. parse and typecheck the embedded software *)
  let info = Minic.Typecheck.check (Minic.C_parser.parse traffic_light) in

  (* 2. derive the SystemC software model (paper Fig. 5) *)
  let kernel = Sim.Kernel.create () in
  let vmem = Esw.Vmem.create () in
  let model = Esw.Esw_model.create kernel (Esw.C2sc.derive info) ~vmem in

  (* 3. create the temporal checker, bind propositions to program state *)
  let checker = Sctc.Checker.create ~name:"traffic" () in
  let light v name =
    Sctc.Checker.register_proposition checker
      (Esw.Esw_prop.var_eq model ~prop_name:name "light" v)
  in
  light 0 "green";
  light 1 "yellow";
  light 2 "red";

  (* 4. state the properties (FLTL; bounds count statements) *)
  Sctc.Checker.add_property_text checker ~name:"no-green-to-red"
    "G (green -> !(X red))";
  Sctc.Checker.add_property_text checker ~name:"red-clears" "G (red -> F[40] green)";
  Sctc.Checker.add_property_text checker ~name:"reaches-red" "F red";

  (* 5. trigger the checker on the program-counter event and simulate *)
  Sctc.Trigger.on_event kernel (Esw.Esw_model.pc_event model) checker;
  Esw.Esw_model.start model ~entry:"main";
  Sim.Kernel.run ~max_time:5_000 kernel;

  (* 6. report *)
  Printf.printf "after %d statements:\n" (Esw.Esw_model.statements model);
  List.iter
    (fun (name, verdict) ->
      Printf.printf "  %-16s %s\n" name (Verdict.to_string verdict))
    (Sctc.Checker.verdicts checker);
  match Sctc.Checker.overall checker with
  | Verdict.False -> exit 1
  | Verdict.True | Verdict.Pending -> ()
