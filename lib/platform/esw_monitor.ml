type t = {
  chk : Sctc.Checker.t;
  mutable init_done : bool;
  mutable armed_cycle : int option;
}

let attach_at soc ~flag_address chk =
  let monitor = { chk; init_done = false; armed_cycle = None } in
  let kernel = Soc.kernel soc in
  let clock = Soc.clock soc in
  let body () =
    (* handshake: wait for the ESW to set its initialization flag *)
    let rec wait_initialized () =
      Sim.Clock.wait_posedge clock;
      if Soc.read_mem soc flag_address = 0 then wait_initialized ()
    in
    wait_initialized ();
    monitor.init_done <- true;
    monitor.armed_cycle <- Some (Sim.Clock.cycles clock);
    let trace = Sctc.Checker.trace chk in
    if Sctc.Trace.enabled trace then
      Sctc.Trace.emit trace
        (Sctc.Trace.Handshake_armed { source = "esw_monitor" });
    (* monitor the temporal properties on every clock edge *)
    let rec monitor_loop () =
      Sctc.Checker.trigger chk;
      Sim.Clock.wait_posedge clock;
      monitor_loop ()
    in
    monitor_loop ()
  in
  Sim.Kernel.spawn kernel body;
  monitor

let attach soc ~flag chk =
  attach_at soc ~flag_address:(Mcc.Symtab.address_of (Soc.symtab soc) flag) chk

let initialized monitor = monitor.init_done
let armed_at_cycle monitor = monitor.armed_cycle
let checker monitor = monitor.chk
