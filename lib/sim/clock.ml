type t = { posedge_event : Kernel.event; mutable cycle_count : int }

let create kernel ~name ~period =
  if period < 1 then invalid_arg "Clock.create: period must be >= 1";
  let clock =
    { posedge_event = Kernel.event kernel (name ^ ".posedge"); cycle_count = 0 }
  in
  Kernel.spawn_timed kernel (fun () ->
      clock.cycle_count <- clock.cycle_count + 1;
      Kernel.notify clock.posedge_event;
      period);
  clock

let posedge clock = clock.posedge_event
let cycles clock = clock.cycle_count
