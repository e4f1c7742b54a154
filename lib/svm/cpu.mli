(** The SVM processor: a fetch-decode-execute interpreter.

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
    bytes of address [code_base] at offset 0, and every pc in
    [\[code_lo, code_hi)] whose offset from [code_base] is a multiple
    of {!Isa.width} is read from it with no further check or charge.
    Any other pc goes through [refill pc], which checks and charges the
    fetch and then either raises or leaves [pc]'s instruction readable
    at [pc - code_base] in [code].

    Guest loads and stores use the {e data window} alike: an [ld],
    [st], [ldb] or [stb] whose bytes all lie in [\[data_lo, data_hi)]
    reads them from [data] at [addr - data_base], and a store writes
    them there if [data_writable], with no further check or charge.
    Any other access (one that crosses [data_hi], or a store through a
    read-only window) calls the matching accessor, which checks and
    charges it and may move the window. An implementation opens the
    window only over bytes whose every access would charge nothing. *)
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
    program runs; also returns its backing buffer. Both windows cover
    the whole buffer. *)
val flat_mem : int -> mem * Bytes.t

(** Result of a syscall as decided by the environment. *)
type sys_result = Sys_continue | Sys_exit of int

type outcome = Running | Halted | Exited of int

type t = {
  regs : int array; (** sign-extended 32-bit values *)
  mutable pc : int;
  mutable instr_count : int;
  mutable outcome : outcome;
  mem : mem;
  sys : t -> int -> sys_result;
}

val create : ?sys:(t -> int -> sys_result) -> mem -> t
val get_reg : t -> int -> int32
val set_reg : t -> int -> int32 -> unit

(** Execute one instruction. No-op once the CPU has halted or exited.
    Registers wrap exactly as [Int32] arithmetic does.
    @raise Trap on division by zero or a memory fault.
    @raise Encode.Bad_instruction on an unknown opcode, before the pc
    or the instruction count moves. *)
val step : t -> unit

(** [run ~fuel cpu] steps until the CPU halts, exits, or [fuel]
    instructions have executed ([Running] means the fuel ran out). *)
val run : ?fuel:int -> t -> outcome

(** Read a NUL-terminated string from memory at an address. *)
val read_cstring : t -> int -> string

(** Read raw bytes from memory. *)
val read_bytes : t -> int -> int -> Bytes.t

(** Write raw bytes into memory. *)
val write_bytes : t -> int -> Bytes.t -> unit
