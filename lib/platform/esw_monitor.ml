type t = {
  chk : Sctc.Checker.t;
  mutable init_done : bool;
  mutable armed_cycle : int option;
}

let attach_at soc ~flag_address chk =
  let monitor = { chk; init_done = false; armed_cycle = None } in
  let clock = Soc.clock soc in
  (* every rising edge: poll the initialization flag until the software
     sets it (the handshake), then monitor the temporal properties, from
     the edge that saw the flag on *)
  let on_posedge () =
    if monitor.init_done then Sctc.Checker.trigger chk
    else if Soc.read_mem soc flag_address <> 0 then begin
      monitor.init_done <- true;
      monitor.armed_cycle <- Some (Sim.Clock.cycles clock);
      let trace = Sctc.Checker.trace chk in
      if Sctc.Trace.enabled trace then
        Sctc.Trace.emit trace
          (Sctc.Trace.Handshake_armed { source = "esw_monitor" });
      Sctc.Checker.trigger chk
    end
  in
  Sim.Kernel.spawn_method (Soc.kernel soc) (Sim.Clock.posedge clock) on_posedge;
  monitor

let attach soc ~flag chk =
  attach_at soc ~flag_address:(Mcc.Symtab.address_of (Soc.symtab soc) flag) chk

let initialized monitor = monitor.init_done
let armed_at_cycle monitor = monitor.armed_cycle
let checker monitor = monitor.chk
