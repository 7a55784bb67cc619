type t = { posedge_event : Kernel.event; mutable cycle_count : int }

let create kernel ~name ~period ?(phase = 0) () =
  if period < 1 then invalid_arg "Clock.create: period must be >= 1";
  let clock =
    { posedge_event = Kernel.event kernel (name ^ ".posedge"); cycle_count = 0 }
  in
  Kernel.spawn kernel (fun () ->
      if phase > 0 then Kernel.wait_for kernel phase;
      let rec tick () =
        clock.cycle_count <- clock.cycle_count + 1;
        Kernel.notify clock.posedge_event;
        Kernel.wait_for kernel period;
        tick ()
      in
      tick ());
  clock

let posedge clock = clock.posedge_event
let cycles clock = clock.cycle_count
let wait_posedge clock = Kernel.wait_event clock.posedge_event
