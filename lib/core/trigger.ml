let on_event kernel event checker =
  Sim.Kernel.spawn kernel (fun () ->
      let trace = Checker.trace checker in
      if Trace.enabled trace then
        Trace.emit trace
          (Trace.Handshake_armed { source = Sim.Kernel.event_name event });
      let rec loop () =
        Sim.Kernel.wait_event event;
        Checker.trigger checker;
        loop ()
      in
      loop ())

let on_clock kernel clock checker = on_event kernel (Sim.Clock.posedge clock) checker
