(** Instruction set of SVM, the simulated 32-bit machine.

    SVM stands in for the PA-RISC / i386 processors of the paper. It is a
    small RISC-like machine chosen so that linking is meaningful: code
    references data and other code through 32-bit absolute immediates
    (patched by [Abs32] relocations) and through pc-relative branch
    displacements (patched by [Pcrel32] relocations).

    Every instruction occupies {!width} bytes:
    byte 0 = opcode, byte 1 = rd, byte 2 = rs1, byte 3 = rs2,
    bytes 4..7 = 32-bit little-endian immediate. *)

(** Number of general-purpose registers. *)
let nregs = 16

(** Register conventions. *)
let reg_ret = 0 (* return value *)

let reg_acc = 1 (* primary scratch / expression accumulator *)
let reg_tmp = 2 (* secondary scratch *)
let reg_arg0 = 1 (* syscall arguments live in r1..r4 *)

let reg_fp = 13
let reg_sp = 14
let reg_ra = 15

(** Instruction width in bytes. *)
let width = 8

type reg = int

(** The instruction set. [imm] fields are signed 32-bit values. Absolute
    control transfers ([Jmp], [Call], [Lea]) are the relocation targets;
    conditional branches are pc-relative (offset from the {e following}
    instruction). *)
type instr =
  | Halt
  | Nop
  | Movi of reg * int32 (* rd := imm *)
  | Mov of reg * reg (* rd := rs1 *)
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Div of reg * reg * reg
  | Mod of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor of reg * reg * reg
  | Shl of reg * reg * reg
  | Shr of reg * reg * reg
  | Addi of reg * reg * int32 (* rd := rs1 + imm *)
  | Cmpeq of reg * reg * reg (* rd := rs1 = rs2 *)
  | Cmplt of reg * reg * reg (* rd := rs1 < rs2 (signed) *)
  | Cmple of reg * reg * reg
  | Ld of reg * reg * int32 (* rd := mem32[rs1 + imm] *)
  | St of reg * reg * int32 (* mem32[rs1 + imm] := rs2  (rd unused) *)
  | Ldb of reg * reg * int32 (* rd := mem8[rs1 + imm] *)
  | Stb of reg * reg * int32 (* mem8[rs1 + imm] := rs2 *)
  | Lea of reg * int32 (* rd := imm (address; Abs32 reloc site) *)
  | Jmp of int32 (* pc := imm (absolute; Abs32 reloc site) *)
  | Jz of reg * int32 (* if rs1 = 0 then pc := pc + 8 + imm *)
  | Jnz of reg * int32
  | Call of int32 (* ra := pc + 8; pc := imm (Abs32 reloc site) *)
  | Callr of reg (* ra := pc + 8; pc := rs1 *)
  | Jmpr of reg (* pc := rs1 *)
  | Ret (* pc := ra *)
  | Sys of int32 (* invoke syscall #imm; args r1..r4, result r0 *)
  | Br of int32 (* pc := pc + 8 + imm (unconditional, pc-relative) *)

(** Opcode numbers (byte 0 of an encoded instruction). The numbering
    is written here and nowhere else: {!opcode}, the decoder and the
    interpreter's dispatch all name these constants. *)
let op_halt = 0
let op_nop = 1
let op_movi = 2
let op_mov = 3
let op_add = 4
let op_sub = 5
let op_mul = 6
let op_div = 7
let op_mod = 8
let op_and = 9
let op_or = 10
let op_xor = 11
let op_shl = 12
let op_shr = 13
let op_addi = 14
let op_cmpeq = 15
let op_cmplt = 16
let op_cmple = 17
let op_ld = 18
let op_st = 19
let op_ldb = 20
let op_stb = 21
let op_lea = 22
let op_jmp = 23
let op_jz = 24
let op_jnz = 25
let op_call = 26
let op_callr = 27
let op_jmpr = 28
let op_ret = 29
let op_sys = 30
let op_br = 31

let max_opcode = op_br

let opcode = function
  | Halt -> op_halt
  | Nop -> op_nop
  | Movi _ -> op_movi
  | Mov _ -> op_mov
  | Add _ -> op_add
  | Sub _ -> op_sub
  | Mul _ -> op_mul
  | Div _ -> op_div
  | Mod _ -> op_mod
  | And_ _ -> op_and
  | Or_ _ -> op_or
  | Xor _ -> op_xor
  | Shl _ -> op_shl
  | Shr _ -> op_shr
  | Addi _ -> op_addi
  | Cmpeq _ -> op_cmpeq
  | Cmplt _ -> op_cmplt
  | Cmple _ -> op_cmple
  | Ld _ -> op_ld
  | St _ -> op_st
  | Ldb _ -> op_ldb
  | Stb _ -> op_stb
  | Lea _ -> op_lea
  | Jmp _ -> op_jmp
  | Jz _ -> op_jz
  | Jnz _ -> op_jnz
  | Call _ -> op_call
  | Callr _ -> op_callr
  | Jmpr _ -> op_jmpr
  | Ret -> op_ret
  | Sys _ -> op_sys
  | Br _ -> op_br

(** Byte offset of the immediate field within an encoded instruction —
    the locus a relocation patches. *)
let imm_offset = 4
