(** Binary encoding and decoding of SVM instructions. *)

exception Bad_instruction of string

let check_reg r =
  if r < 0 || r >= Isa.nregs then
    raise (Bad_instruction (Printf.sprintf "bad register r%d" r))

(* Split an instruction into its four encoded fields. *)
let fields (i : Isa.instr) : int * int * int * int32 =
  match i with
  | Halt | Nop | Ret -> (0, 0, 0, 0l)
  | Movi (rd, imm) | Lea (rd, imm) -> (rd, 0, 0, imm)
  | Mov (rd, rs1) -> (rd, rs1, 0, 0l)
  | Add (rd, rs1, rs2)
  | Sub (rd, rs1, rs2)
  | Mul (rd, rs1, rs2)
  | Div (rd, rs1, rs2)
  | Mod (rd, rs1, rs2)
  | And_ (rd, rs1, rs2)
  | Or_ (rd, rs1, rs2)
  | Xor (rd, rs1, rs2)
  | Shl (rd, rs1, rs2)
  | Shr (rd, rs1, rs2)
  | Cmpeq (rd, rs1, rs2)
  | Cmplt (rd, rs1, rs2)
  | Cmple (rd, rs1, rs2) -> (rd, rs1, rs2, 0l)
  | Addi (rd, rs1, imm) -> (rd, rs1, 0, imm)
  | Ld (rd, rs1, imm) | Ldb (rd, rs1, imm) -> (rd, rs1, 0, imm)
  | St (rs1, rs2, imm) | Stb (rs1, rs2, imm) -> (0, rs1, rs2, imm)
  | Jmp imm | Call imm | Sys imm | Br imm -> (0, 0, 0, imm)
  | Jz (rs1, imm) | Jnz (rs1, imm) -> (0, rs1, 0, imm)
  | Callr rs1 | Jmpr rs1 -> (0, rs1, 0, 0l)

(** [encode_at buf off i] writes the 8-byte encoding of [i] into [buf]
    at offset [off]. *)
let encode_at (buf : Bytes.t) (off : int) (i : Isa.instr) : unit =
  let rd, rs1, rs2, imm = fields i in
  check_reg rd;
  check_reg rs1;
  check_reg rs2;
  Bytes.set_uint8 buf off (Isa.opcode i);
  Bytes.set_uint8 buf (off + 1) rd;
  Bytes.set_uint8 buf (off + 2) rs1;
  Bytes.set_uint8 buf (off + 3) rs2;
  Bytes.set_int32_le buf (off + Isa.imm_offset) imm

(** [encode i] returns the 8-byte encoding of [i]. *)
let encode (i : Isa.instr) : Bytes.t =
  let buf = Bytes.create Isa.width in
  encode_at buf 0 i;
  buf

(* One constructor per opcode, indexed by the {!Isa} opcode constants. *)
let decoders : (int -> int -> int -> int32 -> Isa.instr) array =
  let d = Array.make (Isa.max_opcode + 1) (fun _ _ _ _ -> Isa.Halt) in
  let ( => ) op f = d.(op) <- f in
  Isa.op_halt => (fun _ _ _ _ -> Halt);
  Isa.op_nop => (fun _ _ _ _ -> Nop);
  Isa.op_movi => (fun rd _ _ imm -> Movi (rd, imm));
  Isa.op_mov => (fun rd rs1 _ _ -> Mov (rd, rs1));
  Isa.op_add => (fun rd rs1 rs2 _ -> Add (rd, rs1, rs2));
  Isa.op_sub => (fun rd rs1 rs2 _ -> Sub (rd, rs1, rs2));
  Isa.op_mul => (fun rd rs1 rs2 _ -> Mul (rd, rs1, rs2));
  Isa.op_div => (fun rd rs1 rs2 _ -> Div (rd, rs1, rs2));
  Isa.op_mod => (fun rd rs1 rs2 _ -> Mod (rd, rs1, rs2));
  Isa.op_and => (fun rd rs1 rs2 _ -> And_ (rd, rs1, rs2));
  Isa.op_or => (fun rd rs1 rs2 _ -> Or_ (rd, rs1, rs2));
  Isa.op_xor => (fun rd rs1 rs2 _ -> Xor (rd, rs1, rs2));
  Isa.op_shl => (fun rd rs1 rs2 _ -> Shl (rd, rs1, rs2));
  Isa.op_shr => (fun rd rs1 rs2 _ -> Shr (rd, rs1, rs2));
  Isa.op_addi => (fun rd rs1 _ imm -> Addi (rd, rs1, imm));
  Isa.op_cmpeq => (fun rd rs1 rs2 _ -> Cmpeq (rd, rs1, rs2));
  Isa.op_cmplt => (fun rd rs1 rs2 _ -> Cmplt (rd, rs1, rs2));
  Isa.op_cmple => (fun rd rs1 rs2 _ -> Cmple (rd, rs1, rs2));
  Isa.op_ld => (fun rd rs1 _ imm -> Ld (rd, rs1, imm));
  Isa.op_st => (fun _ rs1 rs2 imm -> St (rs1, rs2, imm));
  Isa.op_ldb => (fun rd rs1 _ imm -> Ldb (rd, rs1, imm));
  Isa.op_stb => (fun _ rs1 rs2 imm -> Stb (rs1, rs2, imm));
  Isa.op_lea => (fun rd _ _ imm -> Lea (rd, imm));
  Isa.op_jmp => (fun _ _ _ imm -> Jmp imm);
  Isa.op_jz => (fun _ rs1 _ imm -> Jz (rs1, imm));
  Isa.op_jnz => (fun _ rs1 _ imm -> Jnz (rs1, imm));
  Isa.op_call => (fun _ _ _ imm -> Call imm);
  Isa.op_callr => (fun _ rs1 _ _ -> Callr rs1);
  Isa.op_jmpr => (fun _ rs1 _ _ -> Jmpr rs1);
  Isa.op_ret => (fun _ _ _ _ -> Ret);
  Isa.op_sys => (fun _ _ _ imm -> Sys imm);
  Isa.op_br => (fun _ _ _ imm -> Br imm);
  d

(** [bad_opcode op] raises the {!Bad_instruction} an unknown opcode
    gets. *)
let bad_opcode op = raise (Bad_instruction (Printf.sprintf "bad opcode %d" op))

(** [decode_fields op rd rs1 rs2 imm] rebuilds the instruction from its
    raw fields. Raises {!Bad_instruction} on an unknown opcode. *)
let decode_fields op rd rs1 rs2 (imm : int32) : Isa.instr =
  if op < 0 || op > Isa.max_opcode then bad_opcode op;
  decoders.(op) rd rs1 rs2 imm

(** [decode_at buf off] decodes the instruction stored at [off]. *)
let decode_at (buf : Bytes.t) (off : int) : Isa.instr =
  if off + Isa.width > Bytes.length buf then
    raise (Bad_instruction "truncated instruction");
  let op = Bytes.get_uint8 buf off in
  let rd = Bytes.get_uint8 buf (off + 1) in
  let rs1 = Bytes.get_uint8 buf (off + 2) in
  let rs2 = Bytes.get_uint8 buf (off + 3) in
  let imm = Bytes.get_int32_le buf (off + Isa.imm_offset) in
  decode_fields op rd rs1 rs2 imm

let decode (buf : Bytes.t) : Isa.instr = decode_at buf 0

(** [assemble instrs] encodes a whole instruction sequence. *)
let assemble (instrs : Isa.instr list) : Bytes.t =
  let buf = Bytes.create (List.length instrs * Isa.width) in
  List.iteri (fun idx i -> encode_at buf (idx * Isa.width) i) instrs;
  buf

(** [disassemble buf] decodes a code section back into instructions.
    The buffer length must be a multiple of {!Isa.width}. *)
let disassemble (buf : Bytes.t) : Isa.instr list =
  let n = Bytes.length buf in
  if n mod Isa.width <> 0 then
    raise (Bad_instruction "code size not a multiple of instruction width");
  let rec go off acc =
    if off >= n then List.rev acc else go (off + Isa.width) (decode_at buf off :: acc)
  in
  go 0 []
