module Flash = Dataflash.Flash
module Flash_ctrl = Dataflash.Flash_ctrl
module Map = Cpu.Memory_map

type config = {
  clock_period : int;
  flash : Flash.config;
  flash_faults : Flash.fault_config;
  seed : int;
}

let default_config =
  {
    clock_period = 10;
    flash = Flash.default_config;
    flash_faults = Flash.no_faults;
    seed = 42;
  }

type t = {
  cfg : config;
  kernel : Sim.Kernel.t;
  clock : Sim.Clock.t;
  bus : Cpu.Bus.t;
  ram : Cpu.Ram.t;
  core : Cpu.Cpu_core.t;
  flash_ctrl : Flash_ctrl.t;
  mbox : Mailbox.t;
  stimulus_prng : Stimuli.Prng.t;
  console : int list ref; (* reversed *)
  mutable program : Mcc.Codegen.compiled option;
}

let create ?(config = default_config) () =
  let kernel = Sim.Kernel.create () in
  let clock =
    Sim.Clock.create kernel ~name:"cpu_clk" ~period:config.clock_period
  in
  let bus = Cpu.Bus.create () in
  let ram = Cpu.Ram.create ~name:"main-ram" ~base:0 ~size:0x8000 in
  Cpu.Bus.attach bus (Cpu.Ram.device ram);
  let master_prng = Stimuli.Prng.create ~seed:config.seed in
  let flash_model =
    Flash.create ~prng:(Stimuli.Prng.split master_prng "flash-faults")
      ~faults:config.flash_faults config.flash
  in
  let flash_ctrl = Flash_ctrl.create flash_model in
  Cpu.Bus.attach bus (Flash_ctrl.ctrl_device flash_ctrl ~base:Map.flash_ctrl_base);
  Cpu.Bus.attach bus
    (Flash_ctrl.window_device flash_ctrl ~base:Map.flash_window_base
       ~size:(min Map.flash_window_size (Flash.size_words flash_model)));
  let stimulus_prng = Stimuli.Prng.split master_prng "stimulus" in
  let console = ref [] in
  Cpu.Bus.attach bus
    {
      Cpu.Bus.dev_name = "stimulus";
      base = Map.stimulus_port;
      size = 1;
      read = (fun _ -> Stimuli.Prng.bits stimulus_prng land 0xFFFFF);
      write = (fun _ _ -> ());
    };
  Cpu.Bus.attach bus
    {
      Cpu.Bus.dev_name = "console";
      base = Map.console_port;
      size = 1;
      read = (fun _ -> 0);
      write = (fun _ v -> console := v :: !console);
    };
  let mbox = Mailbox.create () in
  Cpu.Bus.attach bus (Mailbox.device mbox ~base:Map.mailbox_base);
  let core =
    Cpu.Cpu_core.create bus ~start_pc:0 ~stack_pointer:Map.stack_top ()
  in
  let soc =
    {
      cfg = config;
      kernel;
      clock;
      bus;
      ram;
      core;
      flash_ctrl;
      mbox;
      stimulus_prng;
      console;
      program = None;
    }
  in
  (* CPU: one instruction per rising edge; flash advances every cycle *)
  Sim.Kernel.spawn_method kernel (Sim.Clock.posedge clock) (fun () ->
      Flash.tick flash_model;
      if Cpu.Cpu_core.running core then Cpu.Cpu_core.step core);
  soc

let kernel soc = soc.kernel
let clock soc = soc.clock
let cpu soc = soc.core
let flash soc = Flash_ctrl.flash soc.flash_ctrl
let mailbox soc = soc.mbox

let load soc compiled =
  Cpu.Ram.load soc.ram 0 compiled.Mcc.Codegen.words;
  soc.program <- Some compiled

let symtab soc =
  match soc.program with
  | Some compiled -> compiled.Mcc.Codegen.symtab
  | None -> invalid_arg "Soc.symtab: no program loaded"

let read_mem soc addr = Cpu.Bus.peek soc.bus addr

let read_var soc name =
  read_mem soc (Mcc.Symtab.address_of (symtab soc) name)

let console_output soc = List.rev !(soc.console)

let run ?(max_cycles = 100_000) soc =
  let horizon =
    Sim.Kernel.now soc.kernel + (max_cycles * soc.cfg.clock_period)
  in
  Sim.Kernel.run ~max_time:horizon soc.kernel

let cycles soc = Sim.Clock.cycles soc.clock
let cpu_stopped soc = not (Cpu.Cpu_core.running soc.core)
