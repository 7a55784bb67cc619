type t = { name : string; base : int; data : int array }

let create ~name ~base ~size = { name; base; data = Array.make size 0 }

let device ram =
  {
    Bus.dev_name = ram.name;
    base = ram.base;
    size = Array.length ram.data;
    read = (fun offset -> ram.data.(offset));
    write = (fun offset value -> ram.data.(offset) <- Minic.Value.wrap value);
  }

let check ram addr =
  if addr < ram.base || addr >= ram.base + Array.length ram.data then
    invalid_arg
      (Printf.sprintf "Ram.%s: address %d outside [%d, %d)" ram.name addr
         ram.base
         (ram.base + Array.length ram.data))

let load ram addr words =
  List.iteri
    (fun i word ->
      check ram (addr + i);
      ram.data.(addr + i - ram.base) <- word)
    words

let get ram addr =
  check ram addr;
  ram.data.(addr - ram.base)
