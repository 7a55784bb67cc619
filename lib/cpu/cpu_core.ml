module Value = Minic.Value

type stop_reason = Running | Halted | Trapped of int

type t = {
  cpu_bus : Bus.t;
  regs : int array;
  mutable pc : int;
  mutable reason : stop_reason;
  mutable retired : int;
}

let create cpu_bus ~start_pc ?(stack_pointer = 0) () =
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.reg_sp) <- stack_pointer;
  { cpu_bus; regs; pc = start_pc; reason = Running; retired = 0 }

let bus cpu = cpu.cpu_bus
let reg cpu r = cpu.regs.(r)

let set_reg cpu r value =
  if r <> Isa.reg_zero then cpu.regs.(r) <- Value.wrap value

let stop_reason cpu = cpu.reason
let running cpu = cpu.reason = Running
let instructions_retired cpu = cpu.retired

let alu op a b =
  match op with
  | Isa.Add -> Value.add a b
  | Isa.Sub -> Value.sub a b
  | Isa.Mul -> Value.mul a b
  | Isa.Div -> Value.div a b
  | Isa.Rem -> Value.rem a b
  | Isa.And -> Value.logand a b
  | Isa.Or -> Value.logor a b
  | Isa.Xor -> Value.logxor a b
  | Isa.Sll -> Value.shift_left a b
  | Isa.Srl -> Value.shift_right_logical a b
  | Isa.Sra -> Value.shift_right a b
  | Isa.Slt -> Value.of_bool (a < b)
  | Isa.Sle -> Value.of_bool (a <= b)
  | Isa.Seq -> Value.of_bool (a = b)

let condition cond a b =
  match cond with
  | Isa.Beq -> a = b
  | Isa.Bne -> a <> b
  | Isa.Blt -> a < b
  | Isa.Bge -> a >= b

let step cpu =
  if cpu.reason = Running then begin
    match
      let word = Bus.read cpu.cpu_bus cpu.pc in
      Encode.decode word
    with
    | exception Bus.Bus_error _ -> cpu.reason <- Trapped Isa.trap_bounds
    | exception Encode.Bad_instruction _ ->
      cpu.reason <- Trapped Isa.trap_bounds
    | instr -> (
      cpu.retired <- cpu.retired + 1;
      let next = cpu.pc + 1 in
      match instr with
      | Isa.Nop -> cpu.pc <- next
      | Isa.Halt -> cpu.reason <- Halted
      | Isa.Trap code -> cpu.reason <- Trapped code
      | Isa.Lui (rd, imm) ->
        set_reg cpu rd (Value.wrap (imm lsl 10));
        cpu.pc <- next
      | Isa.Alu (op, rd, rs1, rs2) -> (
        match alu op cpu.regs.(rs1) cpu.regs.(rs2) with
        | value ->
          set_reg cpu rd value;
          cpu.pc <- next
        | exception Value.Division_by_zero ->
          cpu.reason <- Trapped Isa.trap_division)
      | Isa.Alui (op, rd, rs1, imm) -> (
        match alu op cpu.regs.(rs1) imm with
        | value ->
          set_reg cpu rd value;
          cpu.pc <- next
        | exception Value.Division_by_zero ->
          cpu.reason <- Trapped Isa.trap_division)
      | Isa.Load (rd, rs1, imm) -> (
        match Bus.read cpu.cpu_bus (cpu.regs.(rs1) + imm) with
        | value ->
          set_reg cpu rd value;
          cpu.pc <- next
        | exception Bus.Bus_error _ ->
          cpu.reason <- Trapped Isa.trap_bounds)
      | Isa.Store (rs2, rs1, imm) -> (
        match Bus.write cpu.cpu_bus (cpu.regs.(rs1) + imm) cpu.regs.(rs2) with
        | () -> cpu.pc <- next
        | exception Bus.Bus_error _ ->
          cpu.reason <- Trapped Isa.trap_bounds)
      | Isa.Branch (cond, rs1, rs2, imm) ->
        if condition cond cpu.regs.(rs1) cpu.regs.(rs2) then
          cpu.pc <- cpu.pc + imm
        else cpu.pc <- next
      | Isa.Jal (rd, imm) ->
        set_reg cpu rd next;
        cpu.pc <- cpu.pc + imm
      | Isa.Jalr (rd, rs1, imm) ->
        let target = cpu.regs.(rs1) + imm in
        set_reg cpu rd next;
        cpu.pc <- target)
  end

let run ?(max_instructions = max_int) cpu =
  let budget = ref max_instructions in
  while cpu.reason = Running && !budget > 0 do
    step cpu;
    decr budget
  done;
  cpu.reason
