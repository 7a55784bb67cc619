let on_event kernel event checker =
  Sim.Kernel.spawn_method kernel event
    ~init:(fun () ->
      let trace = Checker.trace checker in
      if Trace.enabled trace then
        Trace.emit trace
          (Trace.Handshake_armed { source = Sim.Kernel.event_name event }))
    (fun () -> Checker.trigger checker)

let on_clock kernel clock checker = on_event kernel (Sim.Clock.posedge clock) checker
