type config = {
  num_blocks : int;
  words_per_block : int;
  erase_ticks : int;
  write_ticks : int;
  write_fail_prob : float;
  erase_fail_prob : float;
}

let default_config =
  {
    num_blocks = 4;
    words_per_block = 128;
    erase_ticks = 50;
    write_ticks = 5;
    write_fail_prob = 0.0;
    erase_fail_prob = 0.0;
  }

type fault_config = { decay_prob : float; power_loss_prob : float }

let no_faults = { decay_prob = 0.0; power_loss_prob = 0.0 }

type status = Ready | Busy | Fault

(* [torn] carries the effect of a power loss decided when the operation
   was accepted: the bit mask left unprogrammed of a torn write, or the
   number of words actually erased of a torn block erase *)
type pending =
  | No_op
  | Write_op of { addr : int; value : int; will_fail : bool; torn : int option }
  | Erase_op of { block : int; will_fail : bool; torn : int option }

type t = {
  cfg : config;
  fault_cfg : fault_config;
  cells : int array; (* -1 = erased *)
  bad_blocks : bool array;
  prng : Stimuli.Prng.t;
  decay_prng : Stimuli.Prng.t;
  power_prng : Stimuli.Prng.t;
  mutable state : status;
  mutable pending : pending;
  mutable remaining : int;
  mutable writes_done : int;
  mutable erases_done : int;
  mutable faults : int;
  mutable decays : int;
  mutable power_losses : int;
}

let create ?prng ?(faults = no_faults) cfg =
  if cfg.num_blocks <= 0 || cfg.words_per_block <= 0 then
    invalid_arg "Flash.create: empty geometry";
  let prng =
    match prng with Some p -> p | None -> Stimuli.Prng.create ~seed:0
  in
  {
    cfg;
    fault_cfg = faults;
    cells = Array.make (cfg.num_blocks * cfg.words_per_block) (-1);
    bad_blocks = Array.make cfg.num_blocks false;
    prng;
    (* each fault class draws from its own substream ([split] is a pure
       read of the parent), so enabling one class never shifts the
       values of another — and a zero-probability class draws nothing
       ([Prng.chance] short-circuits), keeping fault-free runs
       bit-identical to a faultless build *)
    decay_prng = Stimuli.Prng.split prng "bit-decay";
    power_prng = Stimuli.Prng.split prng "power-loss";
    state = Ready;
    pending = No_op;
    remaining = 0;
    writes_done = 0;
    erases_done = 0;
    faults = 0;
    decays = 0;
    power_losses = 0;
  }

let config flash = flash.cfg
let size_words flash = Array.length flash.cells
let status flash = flash.state

let clear_fault flash = if flash.state = Fault then flash.state <- Ready

let check_addr flash addr =
  if addr < 0 || addr >= Array.length flash.cells then
    invalid_arg (Printf.sprintf "Flash: address %d out of range" addr)

let block_of flash addr = addr / flash.cfg.words_per_block

let read_word flash addr =
  check_addr flash addr;
  flash.cells.(addr)

(* A power loss is decided when the operation is accepted, like the
   plain fault-injection draw: a torn write leaves a random subset of
   the value's 0-bits unprogrammed (erased bits stay at 1 — programming
   only pulls bits low); a torn erase clears only a prefix of the
   block's words. *)
let torn_write_mask flash =
  if Stimuli.Prng.chance flash.power_prng flash.fault_cfg.power_loss_prob then
    Some (Stimuli.Prng.bits flash.power_prng land 0xFFFF)
  else None

let torn_erase_words flash =
  if Stimuli.Prng.chance flash.power_prng flash.fault_cfg.power_loss_prob then
    Some
      (Stimuli.Prng.int_range flash.power_prng ~lo:0
         ~hi:(flash.cfg.words_per_block - 1))
  else None

let start_write flash ~addr ~value =
  if flash.state <> Ready then Error `Busy
  else if addr < 0 || addr >= Array.length flash.cells then Error `Bad_address
  else if flash.cells.(addr) <> -1 then Error `Not_erased
  else begin
    let will_fail =
      flash.bad_blocks.(block_of flash addr)
      || Stimuli.Prng.chance flash.prng flash.cfg.write_fail_prob
    in
    let torn = torn_write_mask flash in
    flash.state <- Busy;
    flash.pending <-
      Write_op { addr; value = Minic.Value.wrap value; will_fail; torn };
    flash.remaining <- max 1 flash.cfg.write_ticks;
    Ok ()
  end

let start_erase flash ~block =
  if flash.state <> Ready then Error `Busy
  else if block < 0 || block >= flash.cfg.num_blocks then Error `Bad_address
  else begin
    let will_fail =
      flash.bad_blocks.(block)
      || Stimuli.Prng.chance flash.prng flash.cfg.erase_fail_prob
    in
    let torn = torn_erase_words flash in
    flash.state <- Busy;
    flash.pending <- Erase_op { block; will_fail; torn };
    flash.remaining <- max 1 flash.cfg.erase_ticks;
    Ok ()
  end

let is_blank flash ~block =
  if block < 0 || block >= flash.cfg.num_blocks then
    invalid_arg "Flash.is_blank: bad block";
  let base = block * flash.cfg.words_per_block in
  let rec scan i =
    i >= flash.cfg.words_per_block || (flash.cells.(base + i) = -1 && scan (i + 1))
  in
  scan 0

let mark_bad_block flash block =
  if block < 0 || block >= flash.cfg.num_blocks then
    invalid_arg "Flash.mark_bad_block: bad block";
  flash.bad_blocks.(block) <- true

let complete flash =
  match flash.pending with
  | No_op -> ()
  | Write_op { addr; value; will_fail; torn } ->
    flash.pending <- No_op;
    (match torn with
    | Some mask ->
      (* power lost mid-program: the masked bits never got pulled low,
         the cell ends up between erased and programmed *)
      flash.cells.(addr) <- Minic.Value.wrap (value lor mask);
      flash.power_losses <- flash.power_losses + 1;
      flash.faults <- flash.faults + 1;
      flash.state <- Fault
    | None ->
      if will_fail then begin
        (* a failed program leaves the cell in an undefined, non-erased
           state: model as a corrupted value *)
        flash.cells.(addr) <- value lxor 0x5A5A;
        flash.faults <- flash.faults + 1;
        flash.state <- Fault
      end
      else begin
        flash.cells.(addr) <- value;
        flash.writes_done <- flash.writes_done + 1;
        flash.state <- Ready
      end)
  | Erase_op { block; will_fail; torn } ->
    flash.pending <- No_op;
    (match torn with
    | Some words ->
      (* power lost mid-erase: only a prefix of the block is blank *)
      let base = block * flash.cfg.words_per_block in
      Array.fill flash.cells base words (-1);
      flash.power_losses <- flash.power_losses + 1;
      flash.faults <- flash.faults + 1;
      flash.state <- Fault
    | None ->
      if will_fail then begin
        flash.faults <- flash.faults + 1;
        flash.state <- Fault
      end
      else begin
        let base = block * flash.cfg.words_per_block in
        Array.fill flash.cells base flash.cfg.words_per_block (-1);
        flash.erases_done <- flash.erases_done + 1;
        flash.state <- Ready
      end)

(* Bit decay: with [decay_prob] per tick, one of the 16 low bits of a
   random programmed cell relaxes back toward the erased (all-ones)
   state — silent retention loss, no fault status, the software only
   sees it when it reads the corrupted word back. The rate is tested
   before [chance], which draws nothing for it either: passing the float
   boxes it, and this runs every time unit. *)
let decay flash =
  let p = flash.fault_cfg.decay_prob in
  if p > 0.0 && Stimuli.Prng.chance flash.decay_prng p then begin
    let addr =
      Stimuli.Prng.int_range flash.decay_prng ~lo:0
        ~hi:(Array.length flash.cells - 1)
    in
    let bit = Stimuli.Prng.int_range flash.decay_prng ~lo:0 ~hi:15 in
    let cell = flash.cells.(addr) in
    if cell <> -1 then begin
      let decayed = Minic.Value.wrap (cell lor (1 lsl bit)) in
      if decayed <> cell then begin
        flash.cells.(addr) <- decayed;
        flash.decays <- flash.decays + 1
      end
    end
  end

let tick flash =
  decay flash;
  if flash.state = Busy then begin
    flash.remaining <- flash.remaining - 1;
    if flash.remaining <= 0 then complete flash
  end

let ticks_remaining flash = if flash.state = Busy then flash.remaining else 0
let writes_completed flash = flash.writes_done
let erases_completed flash = flash.erases_done
let faults_injected flash = flash.faults
let decays_injected flash = flash.decays
let power_losses_injected flash = flash.power_losses

let reset flash =
  Array.fill flash.cells 0 (Array.length flash.cells) (-1);
  flash.state <- Ready;
  flash.pending <- No_op;
  flash.remaining <- 0;
  flash.writes_done <- 0;
  flash.erases_done <- 0;
  flash.faults <- 0;
  flash.decays <- 0;
  flash.power_losses <- 0
