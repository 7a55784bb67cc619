type device = {
  dev_name : string;
  base : int;
  size : int;
  read : int -> int;
  write : int -> int -> unit;
}

exception Bus_error of int

type t = {
  mutable devices : device list; (* sorted by base *)
  mutable read_count : int;
  mutable write_count : int;
}

let create () = { devices = []; read_count = 0; write_count = 0 }

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let attach bus device =
  if device.size <= 0 then invalid_arg "Bus.attach: empty device";
  List.iter
    (fun existing ->
      if overlaps existing device then
        invalid_arg
          (Printf.sprintf "Bus.attach: %s overlaps %s" device.dev_name
             existing.dev_name))
    bus.devices;
  bus.devices <-
    List.sort (fun a b -> Int.compare a.base b.base) (device :: bus.devices)

let find bus addr =
  let rec search = function
    | [] -> raise (Bus_error addr)
    | device :: rest ->
      if addr >= device.base && addr < device.base + device.size then device
      else search rest
  in
  search bus.devices

let read bus addr =
  bus.read_count <- bus.read_count + 1;
  let device = find bus addr in
  device.read (addr - device.base)

let write bus addr value =
  bus.write_count <- bus.write_count + 1;
  let device = find bus addr in
  device.write (addr - device.base) value

let peek bus addr =
  let device = find bus addr in
  device.read (addr - device.base)

let reads bus = bus.read_count
let writes bus = bus.write_count
