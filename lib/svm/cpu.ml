(** The SVM processor: an interpreter that executes straight from the
    encoded bytes.

    The CPU is parameterized over a {!mem} record so the same core runs
    against a flat test memory or against [simos] page tables (where
    loads can fault, get charged to the simulated clock, and share
    physical frames between processes). *)

exception Trap of string

(** Memory interface supplied by the environment. Addresses are
    non-negative ints (32-bit address space); words are sign-extended
    32-bit ints. Implementations may raise {!Trap} on unmapped
    accesses.

    Instructions are read from the {e code window}: [code] holds the
    bytes of address [code_base] at offset 0, and every aligned pc in
    [\[code_lo, code_hi)] may be read from it with no further check or
    charge. Any other pc goes through [refill pc], which charges and
    checks the fetch exactly as a per-instruction fetch would, and
    either raises or leaves [pc]'s instruction readable from
    [code] at [pc - code_base] (usually by moving the window).

    Guest loads and stores go through the {e data window} the same
    way: [data] holds the bytes of address [data_base] at offset 0, and
    an access whose bytes all lie in [\[data_lo, data_hi)] reads them
    there (and writes them, if [data_writable]) with no further check
    or charge. Any other access calls the matching accessor, which may
    move the window. *)
type mem = {
  load8 : int -> int;
  store8 : int -> int -> unit;
  load32 : int -> int;
  store32 : int -> int -> unit;
  mutable code : Bytes.t;
  mutable code_base : int;
  mutable code_lo : int;
  mutable code_hi : int;
  refill : int -> unit;
  mutable data : Bytes.t;
  mutable data_base : int;
  mutable data_lo : int;
  mutable data_hi : int;
  mutable data_writable : bool;
}

(** [flat_mem size] is a simple linear memory for tests and standalone
    program runs. *)
let flat_mem (size : int) : mem * Bytes.t =
  let buf = Bytes.make size '\000' in
  let check addr n =
    if addr < 0 || addr + n > size then
      raise (Trap (Printf.sprintf "memory access out of range: 0x%x" addr))
  in
  let mem =
    {
      load8 = (fun a -> check a 1; Bytes.get_uint8 buf a);
      store8 = (fun a v -> check a 1; Bytes.set_uint8 buf a (v land 0xff));
      load32 = (fun a -> check a 4; Int32.to_int (Bytes.get_int32_le buf a));
      store32 = (fun a v -> check a 4; Bytes.set_int32_le buf a (Int32.of_int v));
      (* the window is the whole buffer; a misaligned but in-range pc
         is legal here and is read after [refill]'s range check *)
      code = buf;
      code_base = 0;
      code_lo = 0;
      code_hi = size - Isa.width + 1;
      refill = (fun a -> check a Isa.width);
      (* so is the data window: only an out-of-range access reaches the
         accessors, which trap *)
      data = buf;
      data_base = 0;
      data_lo = 0;
      data_hi = size;
      data_writable = true;
    }
  in
  (mem, buf)

(** Result of a syscall as decided by the environment. *)
type sys_result = Sys_continue | Sys_exit of int

type outcome = Running | Halted | Exited of int

type t = {
  regs : int array; (* sign-extended 32-bit values *)
  mutable pc : int;
  mutable instr_count : int;
  mutable outcome : outcome;
  mem : mem;
  sys : t -> int -> sys_result;
}

let create ?(sys = fun _ _ -> Sys_continue) (mem : mem) : t =
  {
    regs = Array.make Isa.nregs 0;
    pc = 0;
    instr_count = 0;
    outcome = Running;
    mem;
    sys;
  }

let get_reg (cpu : t) (r : int) : int32 = Int32.of_int cpu.regs.(r)
let set_reg (cpu : t) (r : int) (v : int32) : unit = cpu.regs.(r) <- Int32.to_int v

(* 32-bit wrap-around on the host's 63-bit ints: keep the low 32 bits,
   sign-extended, exactly as [Int32] arithmetic would leave them. *)
let sext32 (x : int) : int = (x lsl 31) asr 31

(* A register value as an unsigned 32-bit address. *)
let addr32 = 0xFFFF_FFFF

(* Execute the instruction at the pc of a running CPU. A bad opcode
   raises before the pc or the count moves. The fields are decoded once
   and one [match] dispatches on the opcode; OCaml compiles a match on a
   dense range of int literals to a jump table. The literals are the
   {!Isa} [op_*] constants (a pattern cannot name a value), and the
   reference-interpreter property in [test_svm.ml] holds each case to
   its instruction. A case runs after the pc has moved to the next
   instruction, so [cpu.pc] is "next" for relative branches and return
   addresses. *)
let[@inline] exec (cpu : t) : unit =
  let pc = cpu.pc in
  let m = cpu.mem in
  if pc < m.code_lo || pc >= m.code_hi || (pc - m.code_base) land (Isa.width - 1) <> 0
  then m.refill pc;
  let b = m.code in
  let off = pc - m.code_base in
  let op = Bytes.get_uint8 b off in
  if op > Isa.max_opcode then Encode.bad_opcode op;
  let rd = Bytes.get_uint8 b (off + 1) in
  let a = Bytes.get_uint8 b (off + 2) in
  let s = Bytes.get_uint8 b (off + 3) in
  let imm = Int32.to_int (Bytes.get_int32_le b (off + Isa.imm_offset)) in
  cpu.instr_count <- cpu.instr_count + 1;
  cpu.pc <- pc + Isa.width;
  let r = cpu.regs in
  match op with
  | 0 (* halt *) -> cpu.outcome <- Halted
  | 1 (* nop *) -> ()
  | 2 (* movi *) -> r.(rd) <- imm
  | 3 (* mov *) -> r.(rd) <- r.(a)
  | 4 (* add *) -> r.(rd) <- sext32 (r.(a) + r.(s))
  | 5 (* sub *) -> r.(rd) <- sext32 (r.(a) - r.(s))
  | 6 (* mul *) -> r.(rd) <- sext32 (r.(a) * r.(s))
  (* [min_int / -1] is 2^31 here and wraps back to [min_int], as
     [Int32.div] gives; [rem] already matches [Int32.rem] *)
  | 7 (* div *) ->
      if r.(s) = 0 then raise (Trap "division by zero") else r.(rd) <- sext32 (r.(a) / r.(s))
  | 8 (* mod *) ->
      if r.(s) = 0 then raise (Trap "division by zero") else r.(rd) <- r.(a) mod r.(s)
  | 9 (* and *) -> r.(rd) <- r.(a) land r.(s)
  | 10 (* or *) -> r.(rd) <- r.(a) lor r.(s)
  | 11 (* xor *) -> r.(rd) <- r.(a) lxor r.(s)
  | 12 (* shl *) -> r.(rd) <- sext32 (r.(a) lsl (r.(s) land 31))
  | 13 (* shr *) -> r.(rd) <- sext32 ((r.(a) land addr32) lsr (r.(s) land 31))
  | 14 (* addi *) -> r.(rd) <- sext32 (r.(a) + imm)
  | 15 (* cmpeq *) -> r.(rd) <- (if r.(a) = r.(s) then 1 else 0)
  | 16 (* cmplt *) -> r.(rd) <- (if r.(a) < r.(s) then 1 else 0)
  | 17 (* cmple *) -> r.(rd) <- (if r.(a) <= r.(s) then 1 else 0)
  | 18 (* ld *) ->
      let addr = (r.(a) + imm) land addr32 in
      r.(rd) <-
        (if addr >= m.data_lo && addr + 4 <= m.data_hi then
           Int32.to_int (Bytes.get_int32_le m.data (addr - m.data_base))
         else m.load32 addr)
  | 19 (* st *) ->
      let addr = (r.(a) + imm) land addr32 in
      if m.data_writable && addr >= m.data_lo && addr + 4 <= m.data_hi then
        Bytes.set_int32_le m.data (addr - m.data_base) (Int32.of_int r.(s))
      else m.store32 addr r.(s)
  | 20 (* ldb *) ->
      let addr = (r.(a) + imm) land addr32 in
      r.(rd) <-
        (if addr >= m.data_lo && addr < m.data_hi then
           Bytes.get_uint8 m.data (addr - m.data_base)
         else m.load8 addr)
  | 21 (* stb *) ->
      let addr = (r.(a) + imm) land addr32 in
      if m.data_writable && addr >= m.data_lo && addr < m.data_hi then
        Bytes.set_uint8 m.data (addr - m.data_base) (r.(s) land 0xff)
      else m.store8 addr (r.(s) land 0xff)
  | 22 (* lea *) -> r.(rd) <- imm
  | 23 (* jmp *) -> cpu.pc <- imm land addr32
  | 24 (* jz *) -> if r.(a) = 0 then cpu.pc <- cpu.pc + imm
  | 25 (* jnz *) -> if r.(a) <> 0 then cpu.pc <- cpu.pc + imm
  | 26 (* call *) ->
      r.(Isa.reg_ra) <- sext32 cpu.pc;
      cpu.pc <- imm land addr32
  | 27 (* callr *) ->
      let target = r.(a) land addr32 in
      r.(Isa.reg_ra) <- sext32 cpu.pc;
      cpu.pc <- target
  | 28 (* jmpr *) -> cpu.pc <- r.(a) land addr32
  | 29 (* ret *) -> cpu.pc <- r.(Isa.reg_ra) land addr32
  | 30 (* sys *) -> (
      match cpu.sys cpu imm with
      | Sys_continue -> ()
      | Sys_exit code -> cpu.outcome <- Exited code)
  | _ (* 31, br: the last opcode; larger ones raised above *) -> cpu.pc <- cpu.pc + imm

(** Execute one instruction. No-op once the CPU has halted or exited. *)
let step (cpu : t) : unit =
  match cpu.outcome with Running -> exec cpu | Halted | Exited _ -> ()

(** [run ~fuel cpu] steps until the CPU halts, exits, or [fuel]
    instructions have executed. Returns the final outcome ([Running]
    means the fuel ran out). *)
let run ?(fuel = max_int) (cpu : t) : outcome =
  let budget = ref fuel in
  while cpu.outcome == Running && !budget > 0 do
    exec cpu;
    decr budget
  done;
  cpu.outcome

(** Convenience accessors for the simulated C-like ABI. *)

(** Read a NUL-terminated string from memory at [addr]. *)
let read_cstring (cpu : t) (addr : int) : string =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = cpu.mem.load8 a in
    if c = 0 then Buffer.contents buf
    else (
      Buffer.add_char buf (Char.chr c);
      go (a + 1))
  in
  go addr

(** Read [len] raw bytes from memory starting at [addr]. The result
    grows as bytes are read, so a huge [len] over a short mapping
    faults at the first unmapped byte without reserving [len] bytes
    first. *)
let read_bytes (cpu : t) (addr : int) (len : int) : Bytes.t =
  let buf = Buffer.create (max 1 (min len 4096)) in
  for i = 0 to len - 1 do
    Buffer.add_char buf (Char.chr (cpu.mem.load8 (addr + i)))
  done;
  Buffer.to_bytes buf

(** Write raw bytes into memory starting at [addr]. *)
let write_bytes (cpu : t) (addr : int) (b : Bytes.t) : unit =
  Bytes.iteri (fun i c -> cpu.mem.store8 (addr + i) (Char.code c)) b
