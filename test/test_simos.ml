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

(* -- data window: loads and stores straight from the region bytes ------------ *)

(* A resident read-only text segment at [text_base] holding [instrs]. *)
let text_base = 0x400000

let map_text space instrs =
  let seg = Bytes.make 0x1000 '\000' in
  place seg text_base instrs;
  let frames = Simos.Phys.alloc (Simos.Phys.create ()) ~label:"text" ~bytes:0x1000 in
  Simos.Addr_space.map_shared space ~vaddr:text_base ~bytes:seg ~frames
    ~backing:{ Simos.Addr_space.resident = [||] } ~label:"text" ()

(* [prog [i0; i1; ...]] lays the instructions out from [text_base]. *)
let prog instrs = List.mapi (fun k i -> (text_base + (k * Svm.Isa.width), i)) instrs

let data_pages space label =
  Simos.Addr_space.touched_pages space ~pred:(fun l -> l = label) ()

(* A word load and a word store that straddle a page end touch and
   charge only the page they start in, whether the window is open over
   that page or not; the next page is charged by its own first access.
   Every number is the parent interpreter's, which had no data
   window. *)
let test_data_window_straddle () =
  let d = 0x10000 in
  let space, clock, _ = mk_space () in
  map_text space
    (prog
       [
         Svm.Isa.Movi (4, Int32.of_int d);
         Svm.Isa.Ld (5, 4, 0x10l);
         Svm.Isa.Movi (6, 0x11223344l);
         Svm.Isa.St (4, 6, 0xffel);
         Svm.Isa.Ld (7, 4, 0xffel);
         Svm.Isa.Ldb (8, 4, 0xfffl);
         Svm.Isa.Sys 1l;
         Svm.Isa.Ldb (9, 4, 0x1001l);
         Svm.Isa.Halt;
       ]);
  Simos.Addr_space.map_private space ~vaddr:d ~size:0x2000 ~touch_user_cost:2.5
    ~label:"data" ();
  let at_sys = ref (0, (0, 0), 0.0, 0.0) in
  let sys _ _ =
    at_sys :=
      ( data_pages space "data",
        Simos.Addr_space.fault_stats space,
        clock.Simos.Clock.user,
        clock.Simos.Clock.system );
    Svm.Cpu.Sys_continue
  in
  let cpu, outcome = run_cpu ~sys space text_base in
  Alcotest.(check bool) "halted" true (outcome = Svm.Cpu.Halted);
  let pages, faults, user, system = !at_sys in
  Alcotest.(check int) "straddling: data pages" 1 pages;
  Alcotest.(check (pair int int)) "straddling: fault_stats" (2, 0) faults;
  Alcotest.(check (float 1e-9)) "straddling: user" 2.5 user;
  Alcotest.(check (float 1e-9)) "straddling: system" 50.0 system;
  Alcotest.(check int32) "straddling load" 0x11223344l (Svm.Cpu.get_reg cpu 7);
  Alcotest.(check int32) "byte in the first page" 0x33l (Svm.Cpu.get_reg cpu 8);
  Alcotest.(check int32) "byte in the second page" 0x11l (Svm.Cpu.get_reg cpu 9);
  Alcotest.(check int) "data pages" 2 (data_pages space "data");
  Alcotest.(check (pair int int)) "fault_stats" (3, 0) (Simos.Addr_space.fault_stats space);
  Alcotest.(check (float 1e-9)) "user" 5.0 clock.Simos.Clock.user;
  Alcotest.(check (float 1e-9)) "system" 75.0 clock.Simos.Clock.system

(* A store after a load from a read-only region faults with the text a
   store always gave, for words and for bytes. *)
let test_data_window_readonly_store () =
  let ro = 0x500000 in
  let run store =
    let space, _, phys = mk_space () in
    map_text space
      (prog
         [
           Svm.Isa.Movi (4, Int32.of_int ro);
           Svm.Isa.Ld (5, 4, 0l);
           Svm.Isa.Ldb (6, 4, 0x10l);
           store;
           Svm.Isa.Halt;
         ]);
    let frames = Simos.Phys.alloc phys ~label:"ro" ~bytes:0x1000 in
    Simos.Addr_space.map_shared space ~vaddr:ro ~bytes:(Bytes.make 0x1000 'x') ~frames
      ~backing:{ Simos.Addr_space.resident = [||] } ~label:"ro" ();
    let text = fault_text (fun () -> run_cpu space text_base) in
    (text, Simos.Addr_space.fault_stats space)
  in
  Alcotest.(check (pair string (pair int int))) "word store"
    (Printf.sprintf "write to read-only ro at 0x%x" (ro + 8), (2, 0))
    (run (Svm.Isa.St (4, 5, 8l)));
  Alcotest.(check (pair string (pair int int))) "byte store"
    (Printf.sprintf "write to read-only ro at 0x%x" (ro + 1), (2, 0))
    (run (Svm.Isa.Stb (4, 6, 1l)))

(* A region is unmapped, or unmapped and mapped again, by a syscall
   between two accesses through the window: the next access faults, or
   sees the new region and pays its first touch. *)
let test_data_window_unmap_and_remap () =
  let d = 0x10000 in
  let code =
    prog
      [
        Svm.Isa.Movi (4, Int32.of_int d);
        Svm.Isa.Movi (7, 0x5a5a5a5al);
        Svm.Isa.St (4, 7, 0x20l);
        Svm.Isa.Ld (5, 4, 0l);
        Svm.Isa.Sys 1l;
        Svm.Isa.Ld (6, 4, 0l);
        Svm.Isa.St (4, 7, 4l);
        Svm.Isa.Ldb (8, 4, 0x20l);
        Svm.Isa.Halt;
      ]
  in
  let map space c =
    Simos.Addr_space.map_private space ~vaddr:d ~init:(Bytes.make 0x100 c) ~size:0x1000
      ~label:"data" ()
  in
  let space, _, _ = mk_space () in
  map_text space code;
  map space 'a';
  let unmap _ _ = Simos.Addr_space.unmap space ~lo:d; Svm.Cpu.Sys_continue in
  Alcotest.(check string) "load after unmap"
    (Printf.sprintf "unmapped address 0x%x" d)
    (fault_text (fun () -> run_cpu ~sys:unmap space text_base));
  let space, clock, _ = mk_space () in
  map_text space code;
  map space 'a';
  let remap _ _ =
    Simos.Addr_space.unmap space ~lo:d;
    map space 'b';
    Svm.Cpu.Sys_continue
  in
  let cpu, outcome = run_cpu ~sys:remap space text_base in
  Alcotest.(check bool) "halted" true (outcome = Svm.Cpu.Halted);
  Alcotest.(check int32) "old region" 0x61616161l (Svm.Cpu.get_reg cpu 5);
  Alcotest.(check int32) "new region" 0x62626262l (Svm.Cpu.get_reg cpu 6);
  Alcotest.(check int32) "old store gone" 0x62l (Svm.Cpu.get_reg cpu 8);
  Alcotest.(check int) "new region stored"
    0x5a5a5a5a (Simos.Addr_space.load32 space (d + 4));
  Alcotest.(check (pair int int)) "fault_stats" (3, 0) (Simos.Addr_space.fault_stats space);
  Alcotest.(check (float 1e-9)) "system" 75.0 clock.Simos.Clock.system;
  (* a store after the unmap faults too, leaving no trace *)
  let space, _, _ = mk_space () in
  map_text space
    (prog
       [
         Svm.Isa.Movi (4, Int32.of_int d);
         Svm.Isa.Ld (5, 4, 0l);
         Svm.Isa.Sys 1l;
         Svm.Isa.St (4, 4, 0l);
         Svm.Isa.Halt;
       ]);
  map space 'a';
  let unmap _ _ = Simos.Addr_space.unmap space ~lo:d; Svm.Cpu.Sys_continue in
  Alcotest.(check string) "store after unmap"
    (Printf.sprintf "unmapped address 0x%x" d)
    (fault_text (fun () -> run_cpu ~sys:unmap space text_base))

(* An access that faults before its page is touched opens no window: a
   later load from that page still pays the first touch. *)
let test_data_window_after_fault () =
  let ro = 0x500000 in
  let space, clock, phys = mk_space () in
  map_text space
    (prog [ Svm.Isa.Movi (4, Int32.of_int (ro + 0xffc)); Svm.Isa.Ld (5, 4, 0l); Svm.Isa.Halt ]);
  let frames = Simos.Phys.alloc phys ~label:"ro" ~bytes:0x1000 in
  Simos.Addr_space.map_shared space ~vaddr:ro ~bytes:(Bytes.make 0x1000 'x') ~frames
    ~backing:{ Simos.Addr_space.resident = [||] } ~label:"ro" ();
  Alcotest.(check string) "store to read-only"
    (Printf.sprintf "write to read-only ro at 0x%x" ro)
    (fault_text (fun () -> Simos.Addr_space.store32 space ro 1));
  Alcotest.(check string) "load past the end"
    (Printf.sprintf "load32 spans end of ro at 0x%x" (ro + 0xffe))
    (fault_text (fun () -> Simos.Addr_space.load32 space (ro + 0xffe)));
  Alcotest.(check int) "nothing touched" 0 (Simos.Addr_space.touched_pages space ());
  let cpu, _ = run_cpu space text_base in
  Alcotest.(check int32) "loaded" 0x78787878l (Svm.Cpu.get_reg cpu 5);
  Alcotest.(check int) "ro page touched" 1 (data_pages space "ro");
  Alcotest.(check (pair int int)) "fault_stats" (2, 0) (Simos.Addr_space.fault_stats space);
  Alcotest.(check (float 1e-9)) "system" 50.0 clock.Simos.Clock.system

(* A loop of word and byte stores and loads over four pages of a
   disk-backed private region, with a per-page user charge: pages,
   faults and every clock bucket are the parent interpreter's. *)
let test_data_window_loop_charges () =
  let d = 0x20000 in
  let space, clock, _ = mk_space () in
  map_text space
    (prog
       [
         Svm.Isa.Movi (4, Int32.of_int d);
         Svm.Isa.Movi (6, 0l);
         Svm.Isa.Movi (10, 0x1c0l);
         (* store i at d + 36 i, byte i at d + 36 i + 35 *)
         Svm.Isa.St (4, 6, 0l);
         Svm.Isa.Stb (4, 6, 35l);
         Svm.Isa.Addi (4, 4, 36l);
         Svm.Isa.Addi (6, 6, 1l);
         Svm.Isa.Cmplt (11, 6, 10);
         Svm.Isa.Jnz (11, -48l);
         (* sum them back *)
         Svm.Isa.Movi (4, Int32.of_int d);
         Svm.Isa.Movi (6, 0l);
         Svm.Isa.Movi (1, 0l);
         Svm.Isa.Ld (7, 4, 0l);
         Svm.Isa.Ldb (8, 4, 35l);
         Svm.Isa.Add (1, 1, 7);
         Svm.Isa.Add (1, 1, 8);
         Svm.Isa.Addi (4, 4, 36l);
         Svm.Isa.Addi (6, 6, 1l);
         Svm.Isa.Cmplt (11, 6, 10);
         Svm.Isa.Jnz (11, -64l);
         Svm.Isa.Halt;
       ]);
  let backing = Simos.Addr_space.disk_backing ~bytes:0x1800 in
  Simos.Addr_space.map_private space ~vaddr:d ~init:(Bytes.make 0x1800 '\000') ~backing
    ~touch_user_cost:1.25 ~size:0x5000 ~label:"data" ();
  let cpu, outcome = run_cpu space text_base in
  Alcotest.(check bool) "halted" true (outcome = Svm.Cpu.Halted);
  Alcotest.(check int32) "sum" 151104l (Svm.Cpu.get_reg cpu 1);
  Alcotest.(check int) "instructions" 6279 cpu.Svm.Cpu.instr_count;
  Alcotest.(check int) "data pages" 4 (data_pages space "data");
  Alcotest.(check int) "all pages" 5 (Simos.Addr_space.touched_pages space ());
  Alcotest.(check (pair int int)) "fault_stats" (3, 2) (Simos.Addr_space.fault_stats space);
  Alcotest.(check (float 1e-9)) "user" 5.0 clock.Simos.Clock.user;
  Alcotest.(check (float 1e-9)) "system" 125.0 clock.Simos.Clock.system;
  Alcotest.(check (float 1e-9)) "io" 1800.0 clock.Simos.Clock.io

(* -- kernel: exec + syscalls ------------------------------------------------ *)

(* A hand-assembled program exercising write/open/readdir/stat/argv. *)
let hello_image ?(code = 7) ?(msg = "hello\n") () =
  let a = Sof.Asm.create "hello" in
  Sof.Asm.label a "_start";
  (* write(1, msg, 6) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "msg";
  Sof.Asm.instr a (Svm.Isa.Movi (3, Int32.of_int (String.length msg)));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* exit(code) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int code));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.data_label a "msg";
  Sof.Asm.data_string a msg;
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

let install_hello ?code ?msg k =
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello"
    (Linker.Image.encode (hello_image ?code ?msg ()))

(* exec, run and reap /bin/hello once: (exit code, stdout) *)
let run_hello k =
  let p = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[ "hello" ] in
  let code = Simos.Kernel.run k p () in
  let out = Simos.Proc.stdout_contents p in
  Simos.Kernel.reap k p;
  (code, out)

(* An executable rewritten with other bytes runs its new text and data:
   the page cache keyed by path does not serve the old text, and the
   new file is demand-loaded as a fresh one. *)
let test_exec_after_rewrite () =
  let k = Simos.Kernel.create () in
  install_hello k;
  Alcotest.(check (pair int string)) "first build" (7, "hello\n") (run_hello k);
  Alcotest.(check (pair int string)) "warm" (7, "hello\n") (run_hello k);
  let io_before = k.Simos.Kernel.clock.Simos.Clock.io in
  install_hello ~code:9 ~msg:"HELLO\n" k;
  Alcotest.(check (pair int string)) "rewritten build" (9, "HELLO\n") (run_hello k);
  Alcotest.(check bool) "loaded from disk again" true
    (k.Simos.Kernel.clock.Simos.Clock.io > io_before);
  Alcotest.(check (pair int string)) "rewritten, warm" (9, "HELLO\n") (run_hello k);
  (* the old text's frames went with its page-cache entries *)
  let fresh = Simos.Kernel.create () in
  install_hello ~code:9 ~msg:"HELLO\n" fresh;
  ignore (run_hello fresh);
  Alcotest.(check int) "resident pages as if never rewritten"
    (Simos.Phys.resident_pages fresh.Simos.Kernel.phys)
    (Simos.Phys.resident_pages k.Simos.Kernel.phys)

(* Rewriting an executable with the same bytes keeps it warm: the next
   exec charges exactly what a warm exec does. *)
let test_exec_after_identical_rewrite () =
  let charges k =
    let c = k.Simos.Kernel.clock in
    let before = (c.Simos.Clock.user, c.Simos.Clock.system, c.Simos.Clock.io) in
    ignore (run_hello k);
    let u, s, i = before in
    (c.Simos.Clock.user -. u, c.Simos.Clock.system -. s, c.Simos.Clock.io -. i)
  in
  let warm = Simos.Kernel.create () in
  install_hello warm;
  ignore (run_hello warm);
  let k = Simos.Kernel.create () in
  install_hello k;
  ignore (run_hello k);
  install_hello k;
  let bucket = Alcotest.(triple (float 0.0) (float 0.0) (float 0.0)) in
  Alcotest.check bucket "rewritten with the same bytes = warm" (charges warm) (charges k)

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

(* -- recycled memory: a reaped process's buffers serve the next one --------- *)

type target = Heap | Stack | Bss | Data

(* A guest store: where, at which fraction of the region, what, and
   whether it is a word or a byte. A nonzero [edge] moves it to start
   that many bytes before the next page end, so a word store spills
   into a page it does not touch. *)
type dirt = { target : target; at : float; edge : int; value : int32; word : bool }

let stack_lo = Simos.Kernel.stack_top - Simos.Kernel.stack_size

(* A program that makes each store, reads [flen] bytes of /f into the
   heap at [read_at], and exits. Its data segment is the path followed
   by [words], so pages past the first are touched only by stores; its
   bss is [bss] bytes. Store offsets are resolved against the linked
   layout, so the program is linked twice. *)
let dirty_image ~words ~bss ~stores ~flen ~read_at =
  let build data_len bss_len =
    let a = Sof.Asm.create "dirty" in
    Sof.Asm.label a "_start";
    List.iter
      (fun d ->
        let width = if d.word then 4 else 1 in
        let off size =
          let o = int_of_float (d.at *. float_of_int (size - width + 1)) in
          let e = ((o / Simos.Cost.page_size) + 1) * Simos.Cost.page_size - d.edge in
          if d.edge > 0 && e + width <= size then e else o
        in
        (match d.target with
        | Heap ->
            Sof.Asm.instr a
              (Svm.Isa.Movi (4, Int32.of_int (Simos.Kernel.heap_base + off Simos.Kernel.heap_size)))
        | Stack ->
            Sof.Asm.instr a (Svm.Isa.Movi (4, Int32.of_int (stack_lo + off Simos.Kernel.stack_size)))
        | Bss -> Sof.Asm.lea ~addend:(off bss_len) a 4 "buf"
        | Data -> Sof.Asm.lea ~addend:(off data_len) a 4 "dat");
        Sof.Asm.instr a (Svm.Isa.Movi (5, d.value));
        Sof.Asm.instr a (if d.word then Svm.Isa.St (4, 5, 0l) else Svm.Isa.Stb (4, 5, 0l)))
      stores;
    Sof.Asm.lea a 1 "path";
    sys a Simos.Syscall.sys_open;
    Sof.Asm.instr a (Svm.Isa.Mov (1, 0));
    Sof.Asm.instr a (Svm.Isa.Movi (2, Int32.of_int (Simos.Kernel.heap_base + read_at)));
    Sof.Asm.instr a (Svm.Isa.Movi (3, Int32.of_int flen));
    sys a Simos.Syscall.sys_read;
    Sof.Asm.instr a (Svm.Isa.Movi (1, 0l));
    sys a Simos.Syscall.sys_exit;
    Sof.Asm.data_label a "dat";
    Sof.Asm.data_label a "path";
    Sof.Asm.data_string a "/f";
    List.iter (Sof.Asm.data_word a) words;
    Sof.Asm.bss a "buf" bss;
    fst
      (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
         [ Sof.Asm.finish a ])
  in
  let data_seg img =
    List.find (fun s -> s.Linker.Image.writable) img.Linker.Image.segments
  in
  let first = build 4 4 in
  let img = build (Bytes.length (data_seg first).Linker.Image.bytes) first.Linker.Image.bss_size in
  (img, data_seg img)

let region_at space vaddr =
  List.find (fun r -> r.Simos.Addr_space.lo = vaddr) (Simos.Addr_space.regions space)

let zeros_from (b : Bytes.t) (lo : int) =
  let rec go i = i >= Bytes.length b || (Bytes.get b i = '\000' && go (i + 1)) in
  go lo

let gen_dirty =
  let open QCheck.Gen in
  let dirt =
    map4
      (fun target (at, edge) value word -> { target; at; edge; value; word })
      (oneofl [ Heap; Stack; Bss; Data ])
      (pair (float_bound_exclusive 1.0) (frequency [ (3, return 0); (1, int_range 1 3) ]))
      (map Int32.of_int (int_range 1 0x7fffffff))
      bool
  in
  quad
    (pair
       (list_size (int_range 1 2500) (map Int32.of_int (int_range 1 0x7fffffff)))
       (int_range 1 6000))
    (list_size (int_range 0 30) dirt)
    (pair (string_size ~gen:(char_range '\001' '\255') (int_range 1 5000)) (float_bound_exclusive 1.0))
    (pair (int_range 0 10_000) (float_bound_exclusive 1.0))

let print_dirty ((words, bss), stores, (file, at), (cut, _)) =
  Printf.sprintf "%d data words, bss %d, file %d bytes read at %.3f, init cut %d, stores [%s]"
    (List.length words) bss (String.length file) at cut
    (String.concat "; "
       (List.map
          (fun d ->
            Printf.sprintf "%s %.4f-%d %s 0x%lx"
              (match d.target with Heap -> "heap" | Stack -> "stack" | Bss -> "bss" | Data -> "data")
              d.at d.edge (if d.word then "st" else "stb") d.value)
          stores))

(* Random guest stores, a read() into the heap and the data segment's
   init blit dirty a process's private buffers; it is reaped. The next
   process to map regions of those sizes gets the same buffers back
   (the free list empties) and sees zero heap, stack and bss, and data
   equal to its own init followed by zeros, whether it is the same
   executable again or a shorter init over the same size. *)
let prop_recycled_zero =
  QCheck.Test.make ~count:200 ~name:"a recycled buffer reads as freshly mapped"
    (QCheck.make gen_dirty ~print:print_dirty)
    (fun ((words, bss), stores, (file, at), (cut, cut_frac)) ->
      let flen = String.length file in
      let read_at = int_of_float (at *. float_of_int (Simos.Kernel.heap_size - flen)) in
      let img, data = dirty_image ~words ~bss ~stores ~flen ~read_at in
      let init = data.Linker.Image.bytes in
      let dirty () =
        let k = Simos.Kernel.create () in
        Simos.Fs.write_file k.Simos.Kernel.fs "/f" (Bytes.of_string file);
        Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
        Simos.Fs.write_file k.Simos.Kernel.fs "/bin/dirty" (Linker.Image.encode img);
        let p = Simos.Kernel.exec k ~path:"/bin/dirty" ~args:[ "dirty" ] in
        if Simos.Kernel.run k p () <> 0 then QCheck.Test.fail_report "dirty run failed";
        Simos.Kernel.reap k p;
        k
      in
      let check what space ~vaddr ~init =
        let r = region_at space vaddr in
        let b = r.Simos.Addr_space.bytes in
        let n = Bytes.length init in
        if Bytes.sub b 0 n <> init || not (zeros_from b n) then
          QCheck.Test.fail_reportf "%s is not its init followed by zeros" what
      in
      let check_all what space ~data_init =
        check (what ^ " data") space ~vaddr:data.Linker.Image.vaddr ~init:data_init;
        check (what ^ " bss") space ~vaddr:img.Linker.Image.bss_vaddr ~init:Bytes.empty;
        check (what ^ " heap") space ~vaddr:Simos.Kernel.heap_base ~init:Bytes.empty;
        check (what ^ " stack") space ~vaddr:stack_lo ~init:Bytes.empty
      in
      let all_taken what k =
        let left = Simos.Phys.recycled_bytes k.Simos.Kernel.phys in
        if left <> 0 then QCheck.Test.fail_reportf "%s: %d recycled bytes not reused" what left
      in
      (* the same executable again *)
      let k = dirty () in
      let p = Simos.Kernel.exec k ~path:"/bin/dirty" ~args:[ "dirty" ] in
      all_taken "exec" k;
      check_all "exec" p.Simos.Proc.aspace ~data_init:init;
      (* a shorter init over a data region of the same size *)
      let k = dirty () in
      let p = Simos.Kernel.create_process k ~args:[] in
      let space = p.Simos.Proc.aspace in
      let short = Bytes.sub init 0 (min cut (int_of_float (cut_frac *. float_of_int (Bytes.length init)))) in
      Simos.Addr_space.map_private space ~vaddr:data.Linker.Image.vaddr ~init:short
        ~size:(Bytes.length init) ~label:"data" ();
      Simos.Addr_space.map_private space ~vaddr:img.Linker.Image.bss_vaddr
        ~size:img.Linker.Image.bss_size ~label:"bss" ();
      Simos.Kernel.finish_exec k p ~entry:0;
      all_taken "map" k;
      check_all "map" space ~data_init:short;
      true)

(* Host words allocated in the major heap by [n] exec/run/reap cycles
   of /bin/hello after one warm cycle. *)
let major_words_of_cycles k n =
  ignore (run_hello k);
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to n do
    ignore (run_hello k)
  done;
  (Gc.quick_stat ()).Gc.major_words -. before

(* A process's 256 KB heap and stack come from the previous process's
   reaped buffers instead of fresh zero-filled allocations. Allocating
   them costs 2 x 32 Ki words per cycle, 13 M words over 200. *)
let test_recycled_cycles_allocate_little () =
  let k = Simos.Kernel.create () in
  install_hello k;
  let words = major_words_of_cycles k 200 in
  if words > 500_000. then
    Alcotest.failf "200 cycles added %.0f major-heap words (bound 500000)" words

(* 10,000 cycles leave the heap, the recycled bytes and the resident
   frames where 1,000 cycles left them. *)
let test_recycled_soak_flat () =
  let k = Simos.Kernel.create () in
  install_hello k;
  let phys = k.Simos.Kernel.phys in
  let after n =
    for _ = 1 to n do
      ignore (run_hello k)
    done;
    Gc.compact ();
    ((Gc.quick_stat ()).Gc.heap_words, Simos.Phys.recycled_bytes phys,
     Simos.Phys.resident_pages phys)
  in
  let heap1, recycled1, resident1 = after 1_000 in
  let heap2, recycled2, resident2 = after 9_000 in
  Alcotest.(check int) "recycled bytes" recycled1 recycled2;
  Alcotest.(check int) "resident pages" resident1 resident2;
  if heap2 > heap1 + 65_536 then
    Alcotest.failf "heap grew from %d to %d words" heap1 heap2

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
      ( "data window",
        [
          Alcotest.test_case "straddling a page end" `Quick test_data_window_straddle;
          Alcotest.test_case "read-only store" `Quick test_data_window_readonly_store;
          Alcotest.test_case "unmap and remap" `Quick test_data_window_unmap_and_remap;
          Alcotest.test_case "after a fault" `Quick test_data_window_after_fault;
          Alcotest.test_case "loop charges" `Quick test_data_window_loop_charges;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "exec and run" `Quick test_exec_and_run;
          Alcotest.test_case "missing file" `Quick test_exec_missing_file;
          Alcotest.test_case "text sharing" `Quick test_exec_text_sharing;
          Alcotest.test_case "warm exec" `Quick test_second_exec_cheaper_io;
          Alcotest.test_case "args and dirs" `Quick test_syscall_args_and_dirs;
          Alcotest.test_case "exec after rewrite" `Quick test_exec_after_rewrite;
          Alcotest.test_case "exec after identical rewrite" `Quick
            test_exec_after_identical_rewrite;
        ] );
      ( "recycled memory",
        [
          QCheck_alcotest.to_alcotest prop_recycled_zero;
          Alcotest.test_case "200 cycles allocate little" `Quick
            test_recycled_cycles_allocate_little;
          Alcotest.test_case "10,000-cycle soak is flat" `Quick test_recycled_soak_flat;
        ] );
      ( "syscall arguments",
        [
          Alcotest.test_case "argv negative index" `Quick test_argv_negative_index;
          Alcotest.test_case "read negative length" `Quick test_read_negative_length;
          Alcotest.test_case "write huge length" `Quick test_write_huge_length;
        ] );
    ]
