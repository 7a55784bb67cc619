let fail = Loc.fail

let alu_ops =
  [ ("add", Isa.Add); ("sub", Isa.Sub); ("mul", Isa.Mul); ("div", Isa.Div);
    ("rem", Isa.Rem); ("and", Isa.And); ("or", Isa.Or); ("xor", Isa.Xor);
    ("sll", Isa.Sll); ("srl", Isa.Srl); ("sra", Isa.Sra); ("slt", Isa.Slt);
    ("sle", Isa.Sle); ("seq", Isa.Seq) ]

let branch_ops =
  [ ("beq", Isa.Beq); ("bne", Isa.Bne); ("blt", Isa.Blt); ("bge", Isa.Bge) ]

let parse_reg at text =
  let text = String.trim text in
  if String.length text >= 2 && text.[0] = 'r' then
    match int_of_string_opt (String.sub text 1 (String.length text - 1)) with
    | Some r when r >= 0 && r < Isa.num_regs -> r
    | Some _ | None -> fail at "bad register %S" text
  else fail at "bad register %S" text

(* an operand that is either an immediate or a label *)
type target = Imm of int | Label of string

let parse_target at text =
  let text = String.trim text in
  match int_of_string_opt text with
  | Some v -> Imm v
  | None ->
    if text = "" then fail at "missing operand" else Label text

let parse_int at text =
  match int_of_string_opt (String.trim text) with
  | Some v -> v
  | None -> fail at "bad integer %S" text

(* "imm(rN)" *)
let parse_mem_operand at text =
  let text = String.trim text in
  match String.index_opt text '(' with
  | None -> fail at "expected imm(reg), got %S" text
  | Some open_paren ->
    if text.[String.length text - 1] <> ')' then
      fail at "expected closing paren in %S" text;
    let imm = parse_int at (String.sub text 0 open_paren) in
    let reg_text =
      String.sub text (open_paren + 1) (String.length text - open_paren - 2)
    in
    (imm, parse_reg at reg_text)

type pending = P_ready of Isa.instr | P_branch of Isa.branch_cond * int * int * target | P_jal of int * target

let strip_comment line_text =
  let cut_at sep text =
    match String.index_opt text sep with
    | None -> text
    | Some i -> String.sub text 0 i
  in
  cut_at ';' (cut_at '#' line_text)

let split_operands text =
  String.split_on_char ',' text |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let assemble source =
  let labels : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref [] in
  let address = ref 0 in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun index raw ->
      let at = Loc.line_start ~line:(index + 1) raw in
      let text = String.trim (strip_comment raw) in
      let text =
        (* leading labels, possibly several *)
        let rec strip_labels text =
          match String.index_opt text ':' with
          | Some colon
            when String.for_all
                   (fun c ->
                     (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                     || (c >= '0' && c <= '9') || c = '_')
                   (String.sub text 0 colon) && colon > 0 ->
            let label = String.sub text 0 colon in
            if Hashtbl.mem labels label then
              fail at "duplicate label %s" label;
            Hashtbl.replace labels label !address;
            strip_labels
              (String.trim
                 (String.sub text (colon + 1) (String.length text - colon - 1)))
          | _ -> text
        in
        strip_labels text
      in
      if text <> "" then begin
        let mnemonic, rest =
          match String.index_opt text ' ' with
          | None -> (text, "")
          | Some space ->
            ( String.sub text 0 space,
              String.sub text (space + 1) (String.length text - space - 1) )
        in
        let operands = split_operands rest in
        let instr =
          match mnemonic, operands with
          | "nop", [] -> P_ready Isa.Nop
          | "halt", [] -> P_ready Isa.Halt
          | "trap", [ code ] -> P_ready (Isa.Trap (parse_int at code))
          | "lui", [ rd; imm ] ->
            P_ready (Isa.Lui (parse_reg at rd, parse_int at imm))
          | "lw", [ rd; mem ] ->
            let imm, rs1 = parse_mem_operand at mem in
            P_ready (Isa.Load (parse_reg at rd, rs1, imm))
          | "sw", [ rs2; mem ] ->
            let imm, rs1 = parse_mem_operand at mem in
            P_ready (Isa.Store (parse_reg at rs2, rs1, imm))
          | "jal", [ rd; target ] ->
            P_jal (parse_reg at rd, parse_target at target)
          | "jalr", [ rd; rs1; imm ] ->
            P_ready
              (Isa.Jalr
                 ( parse_reg at rd,
                   parse_reg at rs1,
                   parse_int at imm ))
          | _, [ rs1; rs2; target ]
            when List.mem_assoc mnemonic branch_ops ->
            P_branch
              ( List.assoc mnemonic branch_ops,
                parse_reg at rs1,
                parse_reg at rs2,
                parse_target at target )
          | _, [ rd; rs1; rs2 ] when List.mem_assoc mnemonic alu_ops ->
            P_ready
              (Isa.Alu
                 ( List.assoc mnemonic alu_ops,
                   parse_reg at rd,
                   parse_reg at rs1,
                   parse_reg at rs2 ))
          | _, [ rd; rs1; imm ]
            when String.length mnemonic > 1
                 && mnemonic.[String.length mnemonic - 1] = 'i'
                 && List.mem_assoc
                      (String.sub mnemonic 0 (String.length mnemonic - 1))
                      alu_ops ->
            P_ready
              (Isa.Alui
                 ( List.assoc
                     (String.sub mnemonic 0 (String.length mnemonic - 1))
                     alu_ops,
                   parse_reg at rd,
                   parse_reg at rs1,
                   parse_int at imm ))
          | _ -> fail at "cannot parse instruction %S" text
        in
        pending := (at, !address, instr) :: !pending;
        incr address
      end)
    lines;
  let resolve at here = function
    | Imm v -> v
    | Label label -> (
      match Hashtbl.find_opt labels label with
      | Some target -> target - here
      | None -> fail at "unknown label %s" label)
  in
  (* the encoder owns the field widths *)
  let encodable at instr =
    match Encode.encode instr with
    | _ -> instr
    | exception Encode.Immediate_out_of_range _ ->
      fail at "immediate out of range in %s" (Isa.to_string instr)
  in
  let instrs =
    List.rev_map
      (fun (at, here, p) ->
        encodable at
          (match p with
          | P_ready instr -> instr
          | P_branch (cond, rs1, rs2, target) ->
            Isa.Branch (cond, rs1, rs2, resolve at here target)
          | P_jal (rd, target) -> Isa.Jal (rd, resolve at here target)))
      !pending
  in
  instrs

let assemble_words source = List.map Encode.encode (assemble source)
