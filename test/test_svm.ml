(* Tests of the SVM virtual machine: encoding round-trips, interpreter
   semantics, and the call/stack conventions the compiler relies on. *)

open Svm

let i32 = Alcotest.int32
let reg r = r

(* -- encode/decode ----------------------------------------------------- *)

let all_sample_instrs : Isa.instr list =
  [
    Isa.Halt; Isa.Nop; Isa.Movi (3, 42l); Isa.Mov (1, 2);
    Isa.Add (1, 2, 3); Isa.Sub (4, 5, 6); Isa.Mul (7, 8, 9);
    Isa.Div (1, 2, 3); Isa.Mod (1, 2, 3); Isa.And_ (1, 2, 3);
    Isa.Or_ (1, 2, 3); Isa.Xor (1, 2, 3); Isa.Shl (1, 2, 3);
    Isa.Shr (1, 2, 3); Isa.Addi (1, 2, -7l); Isa.Cmpeq (1, 2, 3);
    Isa.Cmplt (1, 2, 3); Isa.Cmple (1, 2, 3); Isa.Ld (1, 2, 100l);
    Isa.St (2, 3, -4l); Isa.Ldb (1, 2, 0l); Isa.Stb (2, 3, 1l);
    Isa.Lea (5, 0x1234l); Isa.Jmp 0x4000l; Isa.Jz (1, 16l);
    Isa.Jnz (2, -24l); Isa.Call 0x5000l; Isa.Callr 3; Isa.Jmpr 4;
    Isa.Ret; Isa.Sys 7l;
  ]

let test_roundtrip () =
  List.iter
    (fun i ->
      let b = Encode.encode i in
      Alcotest.(check int) "width" Isa.width (Bytes.length b);
      let i' = Encode.decode b in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Disasm.instr_to_string i))
        true (i = i'))
    all_sample_instrs

let test_assemble_disassemble () =
  let code = Encode.assemble all_sample_instrs in
  let back = Encode.disassemble code in
  Alcotest.(check int) "count" (List.length all_sample_instrs) (List.length back);
  Alcotest.(check bool) "equal" true (all_sample_instrs = back)

let test_bad_opcode () =
  let b = Bytes.make 8 '\255' in
  Alcotest.check_raises "bad opcode"
    (Encode.Bad_instruction "bad opcode 255")
    (fun () -> ignore (Encode.decode b))

let test_bad_register () =
  Alcotest.check_raises "bad register"
    (Encode.Bad_instruction "bad register r99")
    (fun () -> ignore (Encode.encode (Isa.Mov (99, 0))))

let test_truncated () =
  Alcotest.check_raises "truncated"
    (Encode.Bad_instruction "truncated instruction")
    (fun () -> ignore (Encode.decode (Bytes.create 4)))

(* -- interpreter ------------------------------------------------------- *)

(* Run [instrs] placed at address 0 in a fresh 64 KB flat memory. *)
let run_program ?(fuel = 10_000) ?sys instrs =
  let mem, buf = Cpu.flat_mem 0x10000 in
  let code = Encode.assemble instrs in
  Bytes.blit code 0 buf 0 (Bytes.length code);
  let cpu = Cpu.create ?sys mem in
  Cpu.set_reg cpu Isa.reg_sp 0xFF00l;
  let outcome = Cpu.run ~fuel cpu in
  (cpu, outcome)

let test_arith () =
  let cpu, outcome =
    run_program
      [
        Isa.Movi (1, 20l); Isa.Movi (2, 22l); Isa.Add (3, 1, 2);
        Isa.Sub (4, 3, 1); Isa.Mul (5, 1, 2); Isa.Div (6, 5, 2);
        Isa.Mod (7, 5, 1); Isa.Halt;
      ]
  in
  Alcotest.(check bool) "halted" true (outcome = Cpu.Halted);
  Alcotest.check i32 "add" 42l (Cpu.get_reg cpu 3);
  Alcotest.check i32 "sub" 22l (Cpu.get_reg cpu 4);
  Alcotest.check i32 "mul" 440l (Cpu.get_reg cpu 5);
  Alcotest.check i32 "div" 20l (Cpu.get_reg cpu 6);
  Alcotest.check i32 "mod" 0l (Cpu.get_reg cpu 7)

let test_compare_and_branch () =
  (* compute max(7, 12) via branch *)
  let cpu, _ =
    run_program
      [
        Isa.Movi (1, 7l); Isa.Movi (2, 12l); Isa.Cmplt (3, 1, 2);
        (* if r3 <> 0 jump over the next instruction *)
        Isa.Jnz (3, 8l); Isa.Mov (2, 1); Isa.Mov (0, 2); Isa.Halt;
      ]
  in
  Alcotest.check i32 "max" 12l (Cpu.get_reg cpu 0)

let test_memory_ops () =
  let cpu, _ =
    run_program
      [
        Isa.Movi (1, 0x8000l); Isa.Movi (2, 0x11223344l);
        Isa.St (1, 2, 0l); Isa.Ld (3, 1, 0l); Isa.Ldb (4, 1, 0l);
        Isa.Ldb (5, 1, 3l); Isa.Halt;
      ]
  in
  Alcotest.check i32 "word" 0x11223344l (Cpu.get_reg cpu 3);
  Alcotest.check i32 "byte lo" 0x44l (Cpu.get_reg cpu 4);
  Alcotest.check i32 "byte hi" 0x11l (Cpu.get_reg cpu 5)

let test_call_ret () =
  (* call a function at 0x100 which doubles r1 *)
  let mem, buf = Cpu.flat_mem 0x10000 in
  let main =
    Encode.assemble [ Isa.Movi (1, 21l); Isa.Call 0x100l; Isa.Halt ]
  in
  let f = Encode.assemble [ Isa.Add (1, 1, 1); Isa.Ret ] in
  Bytes.blit main 0 buf 0 (Bytes.length main);
  Bytes.blit f 0 buf 0x100 (Bytes.length f);
  let cpu = Cpu.create mem in
  ignore (Cpu.run ~fuel:100 cpu);
  Alcotest.check i32 "doubled" 42l (Cpu.get_reg cpu 1);
  Alcotest.(check bool) "halted" true (cpu.Cpu.outcome = Cpu.Halted)

let test_syscall () =
  let seen = ref [] in
  let sys (cpu : Cpu.t) n =
    seen := n :: !seen;
    if n = 0 then Cpu.Sys_exit (Int32.to_int (Cpu.get_reg cpu 1))
    else (
      Cpu.set_reg cpu 0 99l;
      Cpu.Sys_continue)
  in
  let cpu, outcome =
    run_program ~sys [ Isa.Sys 5l; Isa.Mov (2, 0); Isa.Movi (1, 3l); Isa.Sys 0l ]
  in
  Alcotest.(check bool) "exited 3" true (outcome = Cpu.Exited 3);
  Alcotest.(check (list int)) "syscalls" [ 0; 5 ] !seen;
  Alcotest.check i32 "sys result visible" 99l (Cpu.get_reg cpu 2)

let test_div_by_zero_traps () =
  Alcotest.check_raises "trap" (Cpu.Trap "division by zero") (fun () ->
      ignore (run_program [ Isa.Movi (1, 1l); Isa.Movi (2, 0l); Isa.Div (3, 1, 2) ]))

let test_unmapped_traps () =
  try
    ignore (run_program [ Isa.Movi (1, 0x7FFFFFFFl); Isa.Ld (2, 1, 0l) ]);
    Alcotest.fail "expected trap"
  with Cpu.Trap _ -> ()

let test_fuel_runs_out () =
  (* infinite loop: jmp 0 *)
  let _, outcome = run_program ~fuel:50 [ Isa.Jmp 0l ] in
  Alcotest.(check bool) "still running" true (outcome = Cpu.Running)

let test_instr_count () =
  let cpu, _ = run_program [ Isa.Nop; Isa.Nop; Isa.Nop; Isa.Halt ] in
  Alcotest.(check int) "count" 4 cpu.Cpu.instr_count

let test_shifts_mask () =
  let cpu, _ =
    run_program
      [
        Isa.Movi (1, 1l); Isa.Movi (2, 33l); (* shift amount masked to 1 *)
        Isa.Shl (3, 1, 2); Isa.Halt;
      ]
  in
  Alcotest.check i32 "shl masked" 2l (Cpu.get_reg cpu 3)

let test_read_cstring () =
  let mem, buf = Cpu.flat_mem 0x1000 in
  Bytes.blit_string "hello\000" 0 buf 0x800 6;
  let cpu = Cpu.create mem in
  Alcotest.(check string) "cstring" "hello" (Cpu.read_cstring cpu 0x800)

(* -- property tests ---------------------------------------------------- *)

let arb_instr =
  let open QCheck in
  let r = Gen.int_range 0 (Isa.nregs - 1) in
  let imm = Gen.map Int32.of_int (Gen.int_range (-1000000) 1000000) in
  let gen =
    Gen.oneof
      [
        Gen.return Isa.Halt;
        Gen.return Isa.Nop;
        Gen.return Isa.Ret;
        Gen.map2 (fun a b -> Isa.Movi (a, b)) r imm;
        Gen.map2 (fun a b -> Isa.Mov (a, b)) r r;
        Gen.map3 (fun a b c -> Isa.Add (a, b, c)) r r r;
        Gen.map3 (fun a b c -> Isa.Ld (a, b, c)) r r imm;
        Gen.map3 (fun a b c -> Isa.St (a, b, c)) r r imm;
        Gen.map (fun a -> Isa.Jmp a) imm;
        Gen.map2 (fun a b -> Isa.Jz (a, b)) r imm;
        Gen.map (fun a -> Isa.Call a) imm;
        Gen.map (fun a -> Isa.Sys a) imm;
      ]
  in
  make ~print:(fun i -> Disasm.instr_to_string i) gen

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode roundtrip" arb_instr (fun i ->
      Encode.decode (Encode.encode i) = i)

let prop_opcode_range =
  QCheck.Test.make ~count:500 ~name:"opcode within range" arb_instr (fun i ->
      Isa.opcode i >= 0 && Isa.opcode i <= Isa.max_opcode)

(* -- differential property: reference interpreter ------------------------ *)

(* The interpreter as it was before it executed from the encoded bytes:
   each fetch decodes an [Isa.instr], registers are [int32] and
   arithmetic is [Int32]'s. It is kept here as the reference that
   [Cpu.run] is held to. *)
module Ref = struct
  type t = {
    regs : int32 array;
    mutable pc : int;
    mutable instr_count : int;
    mutable outcome : Cpu.outcome;
    buf : Bytes.t;
    sys : t -> int -> Cpu.sys_result;
  }

  let check t addr n =
    if addr < 0 || addr + n > Bytes.length t.buf then
      raise (Cpu.Trap (Printf.sprintf "memory access out of range: 0x%x" addr))

  let load8 t a = check t a 1; Bytes.get_uint8 t.buf a
  let store8 t a v = check t a 1; Bytes.set_uint8 t.buf a (v land 0xff)
  let load32 t a = check t a 4; Bytes.get_int32_le t.buf a
  let store32 t a v = check t a 4; Bytes.set_int32_le t.buf a v
  let fetch t a = check t a Isa.width; Encode.decode_at t.buf a
  let addr_of (v : int32) : int = Int32.to_int v land 0xFFFFFFFF
  let bool32 b = if b then 1l else 0l

  let step (cpu : t) : unit =
    match cpu.outcome with
    | Cpu.Halted | Cpu.Exited _ -> ()
    | Cpu.Running -> (
        let i = fetch cpu cpu.pc in
        let next = cpu.pc + Isa.width in
        cpu.instr_count <- cpu.instr_count + 1;
        let r = cpu.regs in
        let binop rd a b f = r.(rd) <- f r.(a) r.(b) in
        let nonzero_div rd a b f =
          if r.(b) = 0l then raise (Cpu.Trap "division by zero")
          else r.(rd) <- f r.(a) r.(b)
        in
        cpu.pc <- next;
        match i with
        | Isa.Halt -> cpu.outcome <- Cpu.Halted
        | Isa.Nop -> ()
        | Isa.Movi (rd, imm) | Isa.Lea (rd, imm) -> r.(rd) <- imm
        | Isa.Mov (rd, rs1) -> r.(rd) <- r.(rs1)
        | Isa.Add (rd, a, b) -> binop rd a b Int32.add
        | Isa.Sub (rd, a, b) -> binop rd a b Int32.sub
        | Isa.Mul (rd, a, b) -> binop rd a b Int32.mul
        | Isa.Div (rd, a, b) -> nonzero_div rd a b Int32.div
        | Isa.Mod (rd, a, b) -> nonzero_div rd a b Int32.rem
        | Isa.And_ (rd, a, b) -> binop rd a b Int32.logand
        | Isa.Or_ (rd, a, b) -> binop rd a b Int32.logor
        | Isa.Xor (rd, a, b) -> binop rd a b Int32.logxor
        | Isa.Shl (rd, a, b) ->
            r.(rd) <- Int32.shift_left r.(a) (Int32.to_int r.(b) land 31)
        | Isa.Shr (rd, a, b) ->
            r.(rd) <- Int32.shift_right_logical r.(a) (Int32.to_int r.(b) land 31)
        | Isa.Addi (rd, a, imm) -> r.(rd) <- Int32.add r.(a) imm
        | Isa.Cmpeq (rd, a, b) -> r.(rd) <- bool32 (r.(a) = r.(b))
        | Isa.Cmplt (rd, a, b) -> r.(rd) <- bool32 (Int32.compare r.(a) r.(b) < 0)
        | Isa.Cmple (rd, a, b) -> r.(rd) <- bool32 (Int32.compare r.(a) r.(b) <= 0)
        | Isa.Ld (rd, a, imm) -> r.(rd) <- load32 cpu (addr_of (Int32.add r.(a) imm))
        | Isa.St (a, s, imm) -> store32 cpu (addr_of (Int32.add r.(a) imm)) r.(s)
        | Isa.Ldb (rd, a, imm) ->
            r.(rd) <- Int32.of_int (load8 cpu (addr_of (Int32.add r.(a) imm)))
        | Isa.Stb (a, s, imm) ->
            store8 cpu (addr_of (Int32.add r.(a) imm)) (Int32.to_int r.(s) land 0xff)
        | Isa.Jmp imm -> cpu.pc <- addr_of imm
        | Isa.Br imm -> cpu.pc <- next + Int32.to_int imm
        | Isa.Jz (a, imm) -> if r.(a) = 0l then cpu.pc <- next + Int32.to_int imm
        | Isa.Jnz (a, imm) -> if r.(a) <> 0l then cpu.pc <- next + Int32.to_int imm
        | Isa.Call imm ->
            r.(Isa.reg_ra) <- Int32.of_int next;
            cpu.pc <- addr_of imm
        | Isa.Callr a ->
            let target = addr_of r.(a) in
            r.(Isa.reg_ra) <- Int32.of_int next;
            cpu.pc <- target
        | Isa.Jmpr a -> cpu.pc <- addr_of r.(a)
        | Isa.Ret -> cpu.pc <- addr_of r.(Isa.reg_ra)
        | Isa.Sys imm -> (
            match cpu.sys cpu (Int32.to_int imm) with
            | Cpu.Sys_continue -> ()
            | Cpu.Sys_exit code -> cpu.outcome <- Cpu.Exited code))

  let run ~fuel (cpu : t) : Cpu.outcome =
    let rec go budget =
      match cpu.outcome with
      | Cpu.Running when budget > 0 ->
          step cpu;
          go (budget - 1)
      | o -> o
    in
    go fuel
end

(* A program slot: an instruction, or eight raw bytes (bad opcodes,
   register fields >= 16). *)
type slot = I of Isa.instr | Raw of Bytes.t

let diff_mem_size = 0x1000
let diff_data_base = 0x800

let slot_to_string = function
  | I i -> Disasm.instr_to_string i
  | Raw b ->
      let byte k = Printf.sprintf "%02x" (Bytes.get_uint8 b k) in
      "raw " ^ String.concat " " (List.init Isa.width byte)

let gen_diff_case =
  let open QCheck.Gen in
  let reg = int_range 0 (Isa.nregs - 1) in
  let edge = [ 0x7fffffffl; Int32.min_int; -1l; 0l; 1l; 2l; 31l; 32l; 33l; 63l; 64l; 0xffl ] in
  let value =
    frequency
      [ (3, oneofl edge); (2, map Int32.of_int (int_range (-300) 300)); (1, map Int32.of_int int) ]
  in
  let words k = Int32.of_int (Isa.width * k) in
  let target =
    frequency
      [
        (6, map words (int_range 0 40));
        ( 1,
          oneofl
            (List.map Int32.of_int
               [ diff_mem_size - 8; diff_mem_size - 4; diff_mem_size; 4; -8; diff_data_base ]) );
      ]
  in
  let offset =
    frequency [ (6, map words (int_range (-6) 6)); (1, oneofl [ 4l; -4l; 0x7ffffff8l ]) ]
  in
  let mem_imm = frequency [ (4, map Int32.of_int (int_range (-16) 0x200)); (1, value) ] in
  let base = frequency [ (4, return 13); (1, reg) ] in
  let one f g = map (fun x -> [ I (f x) ]) g in
  let rrr f = map3 (fun a b c -> [ I (f a b c) ]) reg reg reg in
  let field = frequency [ (3, reg); (1, int_range Isa.nregs 255) ] in
  let raw =
    map2
      (fun (op, rd, rs1) (rs2, imm) ->
        let b = Bytes.create Isa.width in
        Bytes.set_uint8 b 0 op;
        Bytes.set_uint8 b 1 rd;
        Bytes.set_uint8 b 2 rs1;
        Bytes.set_uint8 b 3 rs2;
        Bytes.set_int32_le b Isa.imm_offset imm;
        [ Raw b ])
      (triple
         (frequency [ (1, int_range (Isa.max_opcode + 1) 255); (3, int_range 0 Isa.max_opcode) ])
         field field)
      (pair field value)
  in
  let rrr_ops =
    [
      (fun a b c -> Isa.Add (a, b, c)); (fun a b c -> Isa.Sub (a, b, c));
      (fun a b c -> Isa.Mul (a, b, c)); (fun a b c -> Isa.Div (a, b, c));
      (fun a b c -> Isa.Mod (a, b, c)); (fun a b c -> Isa.Shl (a, b, c));
      (fun a b c -> Isa.Shr (a, b, c)); (fun a b c -> Isa.Cmplt (a, b, c));
      (fun a b c -> Isa.Cmple (a, b, c));
    ]
  in
  (* two edge operands in r11/r12, then an operation on them *)
  let edge_pair =
    map3
      (fun (x, y) op rd -> [ I (Isa.Movi (11, x)); I (Isa.Movi (12, y)); I (op rd 11 12) ])
      (pair (oneofl edge) (oneofl edge))
      (oneofl rrr_ops) reg
  in
  let snippet =
    frequency
      [
        (4, edge_pair);
        (1, return [ I Isa.Halt ]);
        (1, return [ I Isa.Nop ]);
        (4, map2 (fun r v -> [ I (Isa.Movi (r, v)) ]) reg value);
        (1, map2 (fun a b -> [ I (Isa.Mov (a, b)) ]) reg reg);
        (2, rrr (fun a b c -> Isa.Add (a, b, c)));
        (2, rrr (fun a b c -> Isa.Sub (a, b, c)));
        (2, rrr (fun a b c -> Isa.Mul (a, b, c)));
        (2, rrr (fun a b c -> Isa.Div (a, b, c)));
        (2, rrr (fun a b c -> Isa.Mod (a, b, c)));
        (1, rrr (fun a b c -> Isa.And_ (a, b, c)));
        (1, rrr (fun a b c -> Isa.Or_ (a, b, c)));
        (1, rrr (fun a b c -> Isa.Xor (a, b, c)));
        (2, rrr (fun a b c -> Isa.Shl (a, b, c)));
        (2, rrr (fun a b c -> Isa.Shr (a, b, c)));
        (2, map3 (fun a b v -> [ I (Isa.Addi (a, b, v)) ]) reg reg value);
        (1, rrr (fun a b c -> Isa.Cmpeq (a, b, c)));
        (1, rrr (fun a b c -> Isa.Cmplt (a, b, c)));
        (1, rrr (fun a b c -> Isa.Cmple (a, b, c)));
        (2, map3 (fun rd b imm -> [ I (Isa.Ld (rd, b, imm)) ]) reg base mem_imm);
        (2, map3 (fun b s imm -> [ I (Isa.St (b, s, imm)) ]) base reg mem_imm);
        (2, map3 (fun rd b imm -> [ I (Isa.Ldb (rd, b, imm)) ]) reg base mem_imm);
        (2, map3 (fun b s imm -> [ I (Isa.Stb (b, s, imm)) ]) base reg mem_imm);
        (1, map2 (fun r t -> [ I (Isa.Lea (r, t)) ]) reg target);
        (1, one (fun t -> Isa.Jmp t) target);
        (1, map2 (fun r o -> [ I (Isa.Jz (r, o)) ]) reg offset);
        (1, map2 (fun r o -> [ I (Isa.Jnz (r, o)) ]) reg offset);
        (1, one (fun t -> Isa.Call t) target);
        (1, map2 (fun r t -> [ I (Isa.Movi (r, t)); I (Isa.Callr r) ]) reg target);
        (1, map2 (fun r t -> [ I (Isa.Movi (r, t)); I (Isa.Jmpr r) ]) reg target);
        (1, one (fun r -> Isa.Callr r) reg);
        (1, return [ I Isa.Ret ]);
        (1, one (fun n -> Isa.Sys (Int32.of_int n)) (int_range (-1) 4));
        (1, one (fun o -> Isa.Br o) offset);
        (1, raw);
      ]
  in
  pair (map List.concat (list_size (int_range 1 30) snippet)) (array_repeat Isa.nregs value)

let arb_diff_case =
  QCheck.make gen_diff_case ~print:(fun (slots, regs) ->
      Printf.sprintf "regs [%s]\n%s"
        (String.concat "; " (Array.to_list (Array.map Int32.to_string regs)))
        (String.concat "\n"
           (List.mapi
              (fun k s -> Printf.sprintf "%04x  %s" (k * Isa.width) (slot_to_string s))
              slots)))

(* The same initial memory for both interpreters: the program at 0 and
   a byte pattern over the data area. *)
let diff_image slots =
  let buf = Bytes.make diff_mem_size '\000' in
  List.iteri
    (fun k s ->
      let off = k * Isa.width in
      match s with
      | I i -> Encode.encode_at buf off i
      | Raw b -> Bytes.blit b 0 buf off Isa.width)
    slots;
  for a = diff_data_base to diff_mem_size - 1 do
    Bytes.set_uint8 buf a ((a * 37) land 0xff)
  done;
  buf

(* sys 0 exits with r1; any other number n leaves 3n in r0 *)
let diff_sys n ~arg ~set_ret =
  if n = 0 then Cpu.Sys_exit (Int32.to_int arg)
  else (
    set_ret (Int32.of_int (3 * n));
    Cpu.Sys_continue)

let diff_fuel = 300

let outcome_of f =
  match f () with
  | o -> Ok o
  | exception e -> Error (Printexc.to_string e)

(* [flat_mem]'s data window is its whole buffer, so every in-range load
   and store takes the interpreter's inline path. With [~data_window:false]
   the window is emptied first and every access goes through the
   accessors instead. *)
let prop_differential ~data_window =
  let name =
    if data_window then "Cpu.run agrees with the decoded int32 reference"
    else "Cpu.run via the accessors agrees with the reference"
  in
  QCheck.Test.make ~count:1000 ~name arb_diff_case (fun (slots, regs) ->
      let image = diff_image slots in
      let init = Array.copy regs in
      init.(13) <- Int32.of_int diff_data_base;
      let reference =
        {
          Ref.regs = Array.copy init;
          pc = 0;
          instr_count = 0;
          outcome = Cpu.Running;
          buf = Bytes.copy image;
          sys =
            (fun t n ->
              diff_sys n ~arg:t.Ref.regs.(1) ~set_ret:(fun v -> t.Ref.regs.(0) <- v));
        }
      in
      let mem, buf = Cpu.flat_mem diff_mem_size in
      if not data_window then mem.Cpu.data_hi <- 0;
      Bytes.blit image 0 buf 0 diff_mem_size;
      let cpu =
        Cpu.create
          ~sys:(fun c n -> diff_sys n ~arg:(Cpu.get_reg c 1) ~set_ret:(Cpu.set_reg c 0))
          mem
      in
      Array.iteri (Cpu.set_reg cpu) init;
      let r_out = outcome_of (fun () -> Ref.run ~fuel:diff_fuel reference) in
      let c_out = outcome_of (fun () -> Cpu.run ~fuel:diff_fuel cpu) in
      let same what a b = if a <> b then QCheck.Test.fail_reportf "%s differs" what in
      same "outcome or exception" r_out c_out;
      same "pc" reference.Ref.pc cpu.Cpu.pc;
      same "instr_count" reference.Ref.instr_count cpu.Cpu.instr_count;
      (* the raw int registers, so a value left unwrapped shows *)
      same "registers"
        (Array.to_list (Array.map Int32.to_int reference.Ref.regs))
        (Array.to_list cpu.Cpu.regs);
      same "memory" (Bytes.to_string reference.Ref.buf) (Bytes.to_string buf);
      true)

let () =
  Alcotest.run "svm"
    [
      ( "encode",
        [
          Alcotest.test_case "roundtrip all" `Quick test_roundtrip;
          Alcotest.test_case "assemble/disassemble" `Quick test_assemble_disassemble;
          Alcotest.test_case "bad opcode" `Quick test_bad_opcode;
          Alcotest.test_case "bad register" `Quick test_bad_register;
          Alcotest.test_case "truncated" `Quick test_truncated;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "compare+branch" `Quick test_compare_and_branch;
          Alcotest.test_case "memory" `Quick test_memory_ops;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "syscall" `Quick test_syscall;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_traps;
          Alcotest.test_case "unmapped access" `Quick test_unmapped_traps;
          Alcotest.test_case "fuel" `Quick test_fuel_runs_out;
          Alcotest.test_case "instr count" `Quick test_instr_count;
          Alcotest.test_case "shift masking" `Quick test_shifts_mask;
          Alcotest.test_case "read_cstring" `Quick test_read_cstring;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_opcode_range;
            prop_differential ~data_window:true;
            prop_differential ~data_window:false;
          ] );
    ]

(* silence unused warnings for helpers *)
let _ = reg
