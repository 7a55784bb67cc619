(** Two-pass assembler and disassembler.

    Syntax (one instruction per line, [;] or [#] comments, [label:] on its
    own or before an instruction):

    {v
      loop:  addi r4, r4, 1
             lw   r5, 2(r2)
             sw   r5, 0(r4)
             bne  r4, r5, loop     ; labels resolve to relative offsets
             jal  r1, subroutine
             halt
    v}

    Branch/jump immediates may be written as numbers (already relative) or
    as label names. Every instruction is passed through
    {!Encode.encode}, which owns the field widths, so
    {!assemble_words} encodes whatever {!assemble} accepts. *)

val assemble : string -> Isa.instr list
(** @raise Loc.Error at the first column of a line with a syntax error,
    an unknown label or an immediate out of range. *)

val assemble_words : string -> int list
(** Assembled and encoded. *)
