(* Tests of the simulated OS: filesystem, clock, physical-memory
   accounting, demand paging, syscalls, and the traditional exec path. *)

(* -- fs ----------------------------------------------------------------- *)

let test_fs_basic () =
  let fs = Simos.Fs.create () in
  Simos.Fs.mkdir_p fs "/a/b/c";
  Simos.Fs.write_file fs "/a/b/c/x.txt" (Bytes.of_string "hello");
  Alcotest.(check bool) "exists" true (Simos.Fs.exists fs "/a/b/c/x.txt");
  Alcotest.(check string) "content" "hello"
    (Bytes.to_string (Simos.Fs.read_file fs "/a/b/c/x.txt"));
  Alcotest.(check (list string)) "listing" [ "x.txt" ] (Simos.Fs.list_dir fs "/a/b/c")

let test_fs_stat_and_remove () =
  let fs = Simos.Fs.create () in
  Simos.Fs.write_file fs "/f" (Bytes.create 10);
  (match Simos.Fs.stat fs "/f" with
  | Some (`File 10) -> ()
  | _ -> Alcotest.fail "bad stat");
  Simos.Fs.remove fs "/f";
  Alcotest.(check bool) "gone" false (Simos.Fs.exists fs "/f")

let test_fs_errors () =
  let fs = Simos.Fs.create () in
  (try
     ignore (Simos.Fs.read_file fs "/missing");
     Alcotest.fail "expected Fs_error"
   with Simos.Fs.Fs_error _ -> ());
  Simos.Fs.write_file fs "/file" Bytes.empty;
  try
    Simos.Fs.mkdir_p fs "/file/sub";
    Alcotest.fail "expected Fs_error"
  with Simos.Fs.Fs_error _ -> ()

let test_fs_disk_usage () =
  let fs = Simos.Fs.create () in
  Simos.Fs.write_file fs "/cache/a" (Bytes.create 100);
  Simos.Fs.write_file fs "/cache/b" (Bytes.create 50);
  Simos.Fs.write_file fs "/other" (Bytes.create 7);
  Alcotest.(check int) "usage" 150 (Simos.Fs.disk_usage fs "/cache")

(* -- clock --------------------------------------------------------------- *)

let test_clock () =
  let c = Simos.Clock.create () in
  Simos.Clock.charge_user c 10.0;
  Simos.Clock.charge_system c 5.0;
  Simos.Clock.charge_io c 100.0;
  Alcotest.(check (float 0.001)) "elapsed" 115.0 (Simos.Clock.elapsed c);
  let snap = Simos.Clock.snapshot c in
  Simos.Clock.charge_user c 1.0;
  let u, s, e = Simos.Clock.since c snap in
  Alcotest.(check (float 0.001)) "du" 1.0 u;
  Alcotest.(check (float 0.001)) "ds" 0.0 s;
  Alcotest.(check (float 0.001)) "de" 1.0 e

(* -- phys ----------------------------------------------------------------- *)

let test_phys_sharing () =
  let phys = Simos.Phys.create () in
  let g = Simos.Phys.alloc phys ~label:"libc.text" ~bytes:(3 * 4096) in
  Simos.Phys.addref g;
  Simos.Phys.addref g;
  Alcotest.(check int) "resident" 3 (Simos.Phys.resident_pages phys);
  Alcotest.(check int) "mapped" 9 (Simos.Phys.mapped_pages phys);
  Alcotest.(check int) "saved" 6 (Simos.Phys.saved_pages phys);
  Simos.Phys.decref phys g;
  Simos.Phys.decref phys g;
  Simos.Phys.decref phys g;
  Alcotest.(check int) "freed" 0 (Simos.Phys.resident_pages phys)

(* -- addr_space ------------------------------------------------------------ *)

let mk_space () =
  let phys = Simos.Phys.create () in
  let clock = Simos.Clock.create () in
  let space = Simos.Addr_space.create ~phys ~clock ~cost:Simos.Cost.hpux () in
  (space, clock, phys)

let test_paging_faults_once_per_page () =
  let space, clock, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x3000 ~label:"anon" ();
  let before = Simos.Clock.elapsed clock in
  ignore (Simos.Addr_space.load8 space 0x10000);
  let after_first = Simos.Clock.elapsed clock in
  Alcotest.(check bool) "first touch charged" true (after_first > before);
  ignore (Simos.Addr_space.load8 space 0x10004);
  Alcotest.(check (float 0.0001)) "second touch free" after_first
    (Simos.Clock.elapsed clock);
  ignore (Simos.Addr_space.load8 space 0x12000);
  Alcotest.(check bool) "new page charged" true
    (Simos.Clock.elapsed clock > after_first);
  let soft, disk = Simos.Addr_space.fault_stats space in
  Alcotest.(check (pair int int)) "fault counts" (2, 0) (soft, disk)

let test_disk_backing_charges_io () =
  let space, clock, _ = mk_space () in
  let backing = Simos.Addr_space.disk_backing ~bytes:0x2000 in
  Simos.Addr_space.map_private space ~vaddr:0x10000
    ~init:(Bytes.make 0x2000 'a') ~backing ~size:0x2000 ~label:"filedata" ();
  ignore (Simos.Addr_space.load8 space 0x10000);
  Alcotest.(check bool) "io charged" true (clock.Simos.Clock.io > 0.0);
  let _, disk = Simos.Addr_space.fault_stats space in
  Alcotest.(check int) "disk fault" 1 disk

let test_disk_backing_shared_residency () =
  (* two processes mapping the same segment: only the first touch pays
     the disk read *)
  let phys = Simos.Phys.create () in
  let clock = Simos.Clock.create () in
  let cost = Simos.Cost.hpux in
  let s1 = Simos.Addr_space.create ~phys ~clock ~cost () in
  let s2 = Simos.Addr_space.create ~phys ~clock ~cost () in
  let bytes = Bytes.make 0x1000 'c' in
  let frames = Simos.Phys.alloc phys ~label:"seg" ~bytes:0x1000 in
  let backing = Simos.Addr_space.disk_backing ~bytes:0x1000 in
  Simos.Addr_space.map_shared s1 ~vaddr:0x4000 ~bytes ~frames ~backing ~label:"seg" ();
  Simos.Addr_space.map_shared s2 ~vaddr:0x4000 ~bytes ~frames ~backing ~label:"seg" ();
  ignore (Simos.Addr_space.load8 s1 0x4000);
  let io_after_first = clock.Simos.Clock.io in
  ignore (Simos.Addr_space.load8 s2 0x4000);
  Alcotest.(check (float 0.0001)) "second process: no disk read" io_after_first
    clock.Simos.Clock.io;
  Alcotest.(check bool) "but charged a soft fault" true
    (fst (Simos.Addr_space.fault_stats s2) = 1)

let test_write_to_readonly_faults () =
  let space, _, phys = mk_space () in
  let bytes = Bytes.make 0x1000 'x' in
  let frames = Simos.Phys.alloc phys ~label:"ro" ~bytes:0x1000 in
  Simos.Addr_space.map_shared space ~vaddr:0x4000 ~bytes ~frames
    ~backing:{ Simos.Addr_space.resident = [||] } ~label:"ro" ();
  try
    Simos.Addr_space.store8 space 0x4000 1;
    Alcotest.fail "expected fault"
  with Simos.Addr_space.Fault _ -> ()

let test_unmapped_fault () =
  let space, _, _ = mk_space () in
  try
    ignore (Simos.Addr_space.load32 space 0xDEAD000);
    Alcotest.fail "expected fault"
  with Simos.Addr_space.Fault _ -> ()

let test_overlap_rejected () =
  let space, _, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x2000 ~label:"a" ();
  try
    Simos.Addr_space.map_private space ~vaddr:0x11000 ~size:0x2000 ~label:"b" ();
    Alcotest.fail "expected fault"
  with Simos.Addr_space.Fault _ -> ()

let test_touched_pages_working_set () =
  let space, _, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x10000 ~label:"lib.text" ();
  ignore (Simos.Addr_space.load8 space 0x10000);
  ignore (Simos.Addr_space.load8 space 0x15000);
  ignore (Simos.Addr_space.load8 space 0x15800);
  Alcotest.(check int) "working set" 2
    (Simos.Addr_space.touched_pages space ~pred:(fun l -> l = "lib.text") ())

(* -- code window: execution straight from the mapped bytes ------------------ *)

(* [place buf base [(addr, instr); ...]] encodes each instruction at its
   absolute address in a segment starting at [base]. *)
let place buf base instrs =
  List.iter (fun (addr, i) -> Svm.Encode.encode_at buf (addr - base) i) instrs

let run_cpu ?sys space pc =
  let cpu = Svm.Cpu.create ?sys (Simos.Addr_space.mem space) in
  cpu.Svm.Cpu.pc <- pc;
  let outcome = Svm.Cpu.run ~fuel:10_000 cpu in
  (cpu, outcome)

let fault_text f =
  match f () with
  | _ -> Alcotest.fail "expected a fault"
  | exception Simos.Addr_space.Fault m -> m

(* Code spanning four pages of a disk-backed shared segment, entered by
   calls, returns, a loop, a page-crossing fall-through and a data load
   from the text. Every number is the parent interpreter's, which
   fetched and charged one instruction at a time. *)
let test_window_multipage_charges () =
  let b = 0x400000 in
  let seg = Bytes.make 0x3800 '\000' in
  place seg b
    [
      (b, Svm.Isa.Movi (1, 0l));
      (b + 0x8, Svm.Isa.Call (Int32.of_int (b + 0x2000)));
      (b + 0x10, Svm.Isa.Call (Int32.of_int (b + 0x1008)));
      (b + 0x18, Svm.Isa.Movi (4, Int32.of_int (b + 0x3400)));
      (b + 0x20, Svm.Isa.Ld (5, 4, 0l));
      (b + 0x28, Svm.Isa.Movi (6, 3l));
      (b + 0x30, Svm.Isa.Addi (1, 1, 1l));
      (b + 0x38, Svm.Isa.Addi (6, 6, -1l));
      (b + 0x40, Svm.Isa.Jnz (6, -24l));
      (b + 0x48, Svm.Isa.Jmp (Int32.of_int (b + 0xff8)));
      (b + 0xff8, Svm.Isa.Addi (1, 1, 100l));
      (b + 0x1000, Svm.Isa.Halt);
      (b + 0x1008, Svm.Isa.Addi (1, 1, 10l));
      (b + 0x1010, Svm.Isa.Ret);
      (b + 0x2000, Svm.Isa.Addi (1, 1, 1000l));
      (b + 0x2008, Svm.Isa.Mov (7, 15));
      (b + 0x2010, Svm.Isa.Call (Int32.of_int (b + 0x3000)));
      (b + 0x2018, Svm.Isa.Mov (15, 7));
      (b + 0x2020, Svm.Isa.Ret);
      (b + 0x3000, Svm.Isa.Addi (1, 1, 10000l));
      (b + 0x3008, Svm.Isa.Ret);
    ];
  Bytes.set_int32_le seg 0x3400 0x12345678l;
  let phys = Simos.Phys.create () in
  let clock = Simos.Clock.create () in
  let frames = Simos.Phys.alloc phys ~label:"text" ~bytes:(Bytes.length seg) in
  let backing = Simos.Addr_space.disk_backing ~bytes:(Bytes.length seg) in
  let exec_once () =
    let space = Simos.Addr_space.create ~phys ~clock ~cost:Simos.Cost.hpux () in
    Simos.Addr_space.map_shared space ~vaddr:b ~bytes:seg ~frames ~backing
      ~touch_user_cost:7.5 ~label:"text" ();
    let cpu, outcome = run_cpu space b in
    Alcotest.(check bool) "halted" true (outcome = Svm.Cpu.Halted);
    Alcotest.(check int32) "r1" 11113l (Svm.Cpu.get_reg cpu 1);
    Alcotest.(check int32) "loaded from text" 0x12345678l (Svm.Cpu.get_reg cpu 5);
    (cpu.Svm.Cpu.instr_count, Simos.Addr_space.fault_stats space,
     Simos.Addr_space.touched_pages space ())
  in
  let count, faults, pages = exec_once () in
  Alcotest.(check int) "instructions" 27 count;
  Alcotest.(check (pair int int)) "fault_stats (soft, disk)" (0, 4) faults;
  Alcotest.(check int) "touched pages" 4 pages;
  Alcotest.(check (float 1e-9)) "user" 30.0 clock.Simos.Clock.user;
  Alcotest.(check (float 1e-9)) "system" 100.0 clock.Simos.Clock.system;
  Alcotest.(check (float 1e-9)) "io" 3600.0 clock.Simos.Clock.io;
  (* a second process over the same segment finds its pages resident *)
  let count, faults, pages = exec_once () in
  Alcotest.(check int) "instructions, second run" 27 count;
  Alcotest.(check (pair int int)) "fault_stats, second run" (4, 0) faults;
  Alcotest.(check int) "touched pages, second run" 4 pages;
  Alcotest.(check (float 1e-9)) "user, both runs" 60.0 clock.Simos.Clock.user;
  Alcotest.(check (float 1e-9)) "system, both runs" 200.0 clock.Simos.Clock.system;
  Alcotest.(check (float 1e-9)) "io, both runs" 3600.0 clock.Simos.Clock.io

(* The code under the pc is unmapped by a syscall (as a dynamic unlink
   upcall would): the next fetch faults instead of running stale bytes.
   Mapping new code at the same address runs the new code. *)
let test_window_unmap_and_remap () =
  let b = 0x200000 in
  let code instrs =
    let seg = Bytes.make 0x1000 '\000' in
    place seg b instrs;
    seg
  in
  let old_code = code [ (b, Svm.Isa.Sys 1l); (b + 8, Svm.Isa.Ret) ] in
  let new_code = code [ (b + 8, Svm.Isa.Movi (1, 2l)); (b + 16, Svm.Isa.Halt) ] in
  let map space seg =
    let frames = Simos.Phys.alloc (Simos.Phys.create ()) ~label:"lib" ~bytes:0x1000 in
    Simos.Addr_space.map_shared space ~vaddr:b ~bytes:seg ~frames
      ~backing:{ Simos.Addr_space.resident = [||] } ~label:"lib" ()
  in
  let space, _, _ = mk_space () in
  map space old_code;
  let unmap _ _ = Simos.Addr_space.unmap space ~lo:b; Svm.Cpu.Sys_continue in
  Alcotest.(check string) "fetch after unmap"
    (Printf.sprintf "unmapped address 0x%x" (b + 8))
    (fault_text (fun () -> run_cpu ~sys:unmap space b));
  let space, _, _ = mk_space () in
  map space old_code;
  let remap _ _ =
    Simos.Addr_space.unmap space ~lo:b;
    map space new_code;
    Svm.Cpu.Sys_continue
  in
  let cpu, outcome = run_cpu ~sys:remap space b in
  Alcotest.(check bool) "halted in the new code" true (outcome = Svm.Cpu.Halted);
  Alcotest.(check int32) "new instruction ran" 2l (Svm.Cpu.get_reg cpu 1)

(* Lazy-binding shape: a store patches an instruction in a writable
   region, in the page being executed, before it runs. *)
let test_window_sees_patched_code () =
  let b = 0x300000 in
  let init = Bytes.make 0x1000 '\000' in
  place init b
    [
      (b, Svm.Isa.Movi (2, Int32.of_int (b + 0x28 + Svm.Isa.imm_offset)));
      (b + 0x8, Svm.Isa.Movi (3, 77l));
      (b + 0x10, Svm.Isa.St (2, 3, 0l));
      (b + 0x18, Svm.Isa.Nop);
      (b + 0x20, Svm.Isa.Nop);
      (b + 0x28, Svm.Isa.Movi (5, 1l));
      (b + 0x30, Svm.Isa.Halt);
    ];
  let space, _, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:b ~init ~size:0x1000 ~label:"plt" ();
  let cpu, outcome = run_cpu space b in
  Alcotest.(check bool) "halted" true (outcome = Svm.Cpu.Halted);
  Alcotest.(check int32) "patched immediate ran" 77l (Svm.Cpu.get_reg cpu 5)

(* A misaligned jump, and falling through into a slot cut short by the
   end of the region (in the page being executed), fault with the same
   text as a per-instruction fetch. *)
let test_window_misaligned_and_short () =
  let b = 0x100000 in
  let init = Bytes.make 0xffc '\000' in
  place init b
    [
      (b, Svm.Isa.Movi (1, Int32.of_int (b + 4)));
      (b + 8, Svm.Isa.Jmpr 1);
      (b + 0x10, Svm.Isa.Jmp (Int32.of_int (b + 0xff0)));
      (b + 0xff0, Svm.Isa.Nop);
    ];
  let space, _, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:b ~init ~size:0xffc ~label:"text" ();
  Alcotest.(check string) "misaligned jump"
    (Printf.sprintf "misaligned or out-of-range fetch at 0x%x" (b + 4))
    (fault_text (fun () -> run_cpu space b));
  Alcotest.(check string) "slot past the end"
    (Printf.sprintf "misaligned or out-of-range fetch at 0x%x" (b + 0xff8))
    (fault_text (fun () -> run_cpu space (b + 0x10)))

(* -- kernel: exec + syscalls ------------------------------------------------ *)

(* A hand-assembled program exercising write/open/readdir/stat/argv. *)
let hello_image () =
  let a = Sof.Asm.create "hello" in
  Sof.Asm.label a "_start";
  (* write(1, msg, 6) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "msg";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 6l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* exit(7) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 7l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.data_label a "msg";
  Sof.Asm.data_string a "hello\n";
  let obj = Sof.Asm.finish a in
  fst (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 } [ obj ])

let test_exec_and_run () =
  let k = Simos.Kernel.create () in
  let img = hello_image () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode img);
  let p = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[ "hello" ] in
  let code = Simos.Kernel.run k p () in
  Alcotest.(check int) "exit code" 7 code;
  Alcotest.(check string) "stdout" "hello\n" (Simos.Proc.stdout_contents p);
  Alcotest.(check bool) "time charged" true (Simos.Clock.elapsed k.Simos.Kernel.clock > 0.0)

let test_exec_missing_file () =
  let k = Simos.Kernel.create () in
  try
    ignore (Simos.Kernel.exec k ~path:"/bin/nope" ~args:[]);
    Alcotest.fail "expected Exec_error"
  with Simos.Kernel.Exec_error _ -> ()

let test_exec_text_sharing () =
  (* exec the same binary twice: the second run shares text frames *)
  let k = Simos.Kernel.create () in
  let img = hello_image () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode img);
  let p1 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p1 ());
  let resident_one = Simos.Phys.resident_pages k.Simos.Kernel.phys in
  let p2 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p2 ());
  let saved = Simos.Phys.saved_pages k.Simos.Kernel.phys in
  Alcotest.(check bool) "text shared" true (saved >= 1);
  Alcotest.(check bool) "resident grows less than double" true
    (Simos.Phys.resident_pages k.Simos.Kernel.phys < 2 * resident_one)

let test_second_exec_cheaper_io () =
  let k = Simos.Kernel.create () in
  let img = hello_image () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode img);
  let snap1 = Simos.Clock.snapshot k.Simos.Kernel.clock in
  let p1 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p1 ());
  let _, _, e1 = Simos.Clock.since k.Simos.Kernel.clock snap1 in
  let snap2 = Simos.Clock.snapshot k.Simos.Kernel.clock in
  let p2 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p2 ());
  let _, _, e2 = Simos.Clock.since k.Simos.Kernel.clock snap2 in
  Alcotest.(check bool) "warm exec faster" true (e2 < e1)

let test_syscall_args_and_dirs () =
  let k = Simos.Kernel.create () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/d";
  Simos.Fs.write_file k.Simos.Kernel.fs "/d/zfile" (Bytes.of_string "abc");
  Simos.Fs.write_file k.Simos.Kernel.fs "/d/afile" (Bytes.of_string "x");
  (* program: open arg1, readdir entries 0 and 1, print names *)
  let a = Sof.Asm.create "lsmini" in
  Sof.Asm.label a "_start";
  (* getarg(1, buf, 64) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 64l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_argv));
  (* fd = open(buf) *)
  Sof.Asm.lea a 1 "buf";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_open));
  Sof.Asm.instr a (Svm.Isa.Mov (5, 0));
  (* readdir(fd, 0, buf) ; write(1, buf, r0) *)
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.instr a (Svm.Isa.Movi (2, 0l));
  Sof.Asm.lea a 3 "buf";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_readdir));
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Mov (3, 0));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* readdir(fd, 1, buf) ; write *)
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.instr a (Svm.Isa.Movi (2, 1l));
  Sof.Asm.lea a 3 "buf";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_readdir));
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Mov (3, 0));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* exit(0) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 0l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.bss a "buf" 64;
  let obj = Sof.Asm.finish a in
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ obj ]
  in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/lsmini" (Linker.Image.encode img);
  let p = Simos.Kernel.exec k ~path:"/bin/lsmini" ~args:[ "lsmini"; "/d" ] in
  ignore (Simos.Kernel.run k p ());
  (* entries come back sorted *)
  Alcotest.(check string) "dir entries" "afilezfile" (Simos.Proc.stdout_contents p)

(* -- syscall arguments stay inside the simulation ----------------------------- *)

(* Link a hand-assembled program, install it as /bin/<name> and exec it. *)
let exec_asm k name ~args emit =
  let a = Sof.Asm.create name in
  Sof.Asm.label a "_start";
  emit a;
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ Sof.Asm.finish a ]
  in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs ("/bin/" ^ name) (Linker.Image.encode img);
  Simos.Kernel.exec k ~path:("/bin/" ^ name) ~args

let sys a n = Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int n))

(* exit(r0): the syscall's result becomes the exit code *)
let exit_with_result a =
  Sof.Asm.instr a (Svm.Isa.Mov (1, 0));
  sys a Simos.Syscall.sys_exit

let test_argv_negative_index () =
  let k = Simos.Kernel.create () in
  let p =
    exec_asm k "argneg" ~args:[ "argneg"; "x" ] (fun a ->
        Sof.Asm.instr a (Svm.Isa.Movi (1, -1l));
        Sof.Asm.lea a 2 "buf";
        Sof.Asm.instr a (Svm.Isa.Movi (3, 64l));
        sys a Simos.Syscall.sys_argv;
        exit_with_result a;
        Sof.Asm.bss a "buf" 64)
  in
  Alcotest.(check int) "argv(-1) returns -1" (-1) (Simos.Kernel.run k p ())

let test_read_negative_length () =
  let k = Simos.Kernel.create () in
  Simos.Fs.write_file k.Simos.Kernel.fs "/f" (Bytes.of_string "contents");
  let p =
    exec_asm k "readneg" ~args:[ "readneg" ] (fun a ->
        Sof.Asm.lea a 1 "path";
        sys a Simos.Syscall.sys_open;
        Sof.Asm.instr a (Svm.Isa.Mov (1, 0));
        Sof.Asm.lea a 2 "buf";
        Sof.Asm.instr a (Svm.Isa.Movi (3, -5l));
        sys a Simos.Syscall.sys_read;
        exit_with_result a;
        Sof.Asm.data_label a "path";
        Sof.Asm.data_string a "/f";
        Sof.Asm.bss a "buf" 64)
  in
  Alcotest.(check int) "read(fd, buf, -5) returns -1" (-1) (Simos.Kernel.run k p ())

(* write(1, buf, 0x7fffffff) with buf 16 bytes below the end of the
   heap: the write faults at the first unmapped byte, having allocated
   no more than it read, and charges nothing for the bytes it never
   wrote. *)
let test_write_huge_length () =
  let k = Simos.Kernel.create () in
  let heap_end = Simos.Kernel.heap_base + Simos.Kernel.heap_size in
  let p =
    exec_asm k "writehuge" ~args:[ "writehuge" ] (fun a ->
        Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
        Sof.Asm.instr a (Svm.Isa.Movi (2, Int32.of_int (heap_end - 16)));
        Sof.Asm.instr a (Svm.Isa.Movi (3, 0x7fffffffl));
        sys a Simos.Syscall.sys_write;
        exit_with_result a)
  in
  let system_before = k.Simos.Kernel.clock.Simos.Clock.system in
  let allocated_before = Gc.allocated_bytes () in
  Alcotest.(check string) "faults at the first unmapped byte"
    (Printf.sprintf "unmapped address 0x%x" heap_end)
    (fault_text (fun () -> Simos.Kernel.run k p ()));
  Alcotest.(check bool) "host allocation stays small" true
    (Gc.allocated_bytes () -. allocated_before < 1e6);
  Alcotest.(check string) "nothing written" "" (Simos.Proc.stdout_contents p);
  Alcotest.(check bool) "no charge for the unread length" true
    (k.Simos.Kernel.clock.Simos.Clock.system -. system_before < 1e3)

let () =
  Alcotest.run "simos"
    [
      ( "fs",
        [
          Alcotest.test_case "basic" `Quick test_fs_basic;
          Alcotest.test_case "stat/remove" `Quick test_fs_stat_and_remove;
          Alcotest.test_case "errors" `Quick test_fs_errors;
          Alcotest.test_case "disk usage" `Quick test_fs_disk_usage;
        ] );
      ("clock", [ Alcotest.test_case "charging" `Quick test_clock ]);
      ("phys", [ Alcotest.test_case "sharing" `Quick test_phys_sharing ]);
      ( "paging",
        [
          Alcotest.test_case "fault once per page" `Quick test_paging_faults_once_per_page;
          Alcotest.test_case "disk backing" `Quick test_disk_backing_charges_io;
          Alcotest.test_case "shared residency" `Quick test_disk_backing_shared_residency;
          Alcotest.test_case "readonly write" `Quick test_write_to_readonly_faults;
          Alcotest.test_case "unmapped" `Quick test_unmapped_fault;
          Alcotest.test_case "overlap" `Quick test_overlap_rejected;
          Alcotest.test_case "working set" `Quick test_touched_pages_working_set;
        ] );
      ( "code window",
        [
          Alcotest.test_case "multi-page charges" `Quick test_window_multipage_charges;
          Alcotest.test_case "unmap and remap" `Quick test_window_unmap_and_remap;
          Alcotest.test_case "patched code" `Quick test_window_sees_patched_code;
          Alcotest.test_case "misaligned and short" `Quick test_window_misaligned_and_short;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "exec and run" `Quick test_exec_and_run;
          Alcotest.test_case "missing file" `Quick test_exec_missing_file;
          Alcotest.test_case "text sharing" `Quick test_exec_text_sharing;
          Alcotest.test_case "warm exec" `Quick test_second_exec_cheaper_io;
          Alcotest.test_case "args and dirs" `Quick test_syscall_args_and_dirs;
        ] );
      ( "syscall arguments",
        [
          Alcotest.test_case "argv negative index" `Quick test_argv_negative_index;
          Alcotest.test_case "read negative length" `Quick test_read_negative_length;
          Alcotest.test_case "write huge length" `Quick test_write_huge_length;
        ] );
    ]
