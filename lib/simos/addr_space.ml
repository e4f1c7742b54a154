(** Per-process virtual address spaces with demand paging.

    A space is a set of non-overlapping regions. Read-only regions can
    be {e shared}: their backing bytes and physical frames belong to a
    cached image and are referenced, not copied — this is where OMOS's
    "same physical memory" clients come from. Writable regions are
    private copies. Every region is demand-paged: the first touch of
    each page charges a soft fault (resident backing) or a disk read
    (first-ever load of a segment that is still "on disk").

    The CPU reads instructions, and loads and stores data, straight
    from the region bytes through a per-page code window and a per-page
    data window (see {!Svm.Cpu.mem}) that this module owns: each is
    filled on an access outside it, after the same lookup, charge and
    checks a single access makes, and both are emptied whenever the
    mappings change.

    The buffer of a released private region goes back, re-zeroed, to
    the kernel's {!Phys.t}, and a later private mapping of the same size
    takes it instead of allocating. *)

exception Fault of string

(* Residency of the segment's source, page by page, SHARED by every
   process mapping the segment: the first process to touch a page pays
   the disk read; everyone after that (and every later touch) pays only
   a soft fault. An empty array means "always resident" (anonymous
   memory, already-cached segments). *)
type backing_state = { resident : bool array }

type region = {
  lo : int;
  hi : int; (* exclusive *)
  bytes : Bytes.t; (* backing store (shared or private) *)
  writable : bool;
  shared : bool;
  label : string;
  touched : bool array; (* per-page demand accounting *)
  init_len : int; (* bytes copied in from [init] at map time *)
  backing : backing_state; (* residency of the segment's source *)
  frames : Phys.frame_group;
  (* extra user-time charge on first touch of each page: models
     deferred (page-wise lazy) relocation work a traditional dynamic
     loader performs in the client, per process *)
  touch_user_cost : float;
}

type stats = {
  mutable soft_faults : int;
  mutable disk_faults : int;
}

type t = {
  mutable regions : region list; (* sorted by lo *)
  phys : Phys.t;
  clock : Clock.t;
  cost : Cost.t;
  stats : stats;
  mutable hint : region; (* last region a data access hit *)
  mem : Svm.Cpu.mem; (* the CPU's view, code window included *)
}

let page_shift = 12
let () = assert (1 lsl page_shift = Cost.page_size)

(* Matches no address: the hint's value when there is none. *)
let no_region =
  {
    lo = 0;
    hi = 0;
    bytes = Bytes.empty;
    writable = false;
    shared = false;
    label = "";
    touched = [||];
    init_len = 0;
    backing = { resident = [||] };
    frames = { Phys.id = -1; label = ""; pages = 0; refs = 0 };
    touch_user_cost = 0.0;
  }

let regions (t : t) = t.regions

(* Empty both windows and the data hint whenever the mappings change:
   any of them may point into a region that is gone (whose buffer may
   already serve another mapping), and upcalls remap in the middle of a
   syscall. *)
let forget (t : t) : unit =
  t.hint <- no_region;
  let m = t.mem in
  m.code <- Bytes.empty;
  m.code_base <- 0;
  m.code_lo <- 0;
  m.code_hi <- 0;
  m.data <- Bytes.empty;
  m.data_base <- 0;
  m.data_lo <- 0;
  m.data_hi <- 0;
  m.data_writable <- false

let npages bytes = max 1 ((bytes + Cost.page_size - 1) / Cost.page_size)

(* Always-resident backing for anonymous regions. *)
let resident_backing () : backing_state = { resident = [||] }

(** Backing that must be demand-loaded from disk, for a segment of
    [bytes] bytes. *)
let disk_backing ~(bytes : int) : backing_state =
  { resident = Array.make (npages bytes) false }

let check_overlap (t : t) lo hi label =
  List.iter
    (fun r ->
      if lo < r.hi && r.lo < hi then
        raise
          (Fault
             (Printf.sprintf "mapping %s [0x%x,0x%x) overlaps %s [0x%x,0x%x)" label lo
                hi r.label r.lo r.hi)))
    t.regions

let insert (t : t) (r : region) =
  let rec go = function
    | [] -> [ r ]
    | x :: rest -> if r.lo < x.lo then r :: x :: rest else x :: go rest
  in
  t.regions <- go t.regions

(** [map_shared t ~vaddr ~bytes ~frames ~backing ~label] maps a
    read-only shared segment: backing bytes and frames are referenced.
    The caller (the server/kernel) owns [frames] and [backing]. *)
let map_shared (t : t) ~(vaddr : int) ~(bytes : Bytes.t)
    ~(frames : Phys.frame_group) ~(backing : backing_state)
    ?(touch_user_cost = 0.0) ~(label : string) () : unit =
  let hi = vaddr + Bytes.length bytes in
  check_overlap t vaddr hi label;
  Phys.addref frames;
  forget t;
  insert t
    {
      lo = vaddr;
      hi;
      bytes;
      writable = false;
      shared = true;
      label;
      touched = Array.make (npages (Bytes.length bytes)) false;
      init_len = 0;
      backing;
      frames;
      touch_user_cost;
    }

(** [map_private t ~vaddr ~init ~size ~label ()] maps a private
    writable region, initialized from [init] (zero-filled beyond it).
    [backing] tracks residency of the init content's source; anonymous
    regions omit it. A recycled buffer of the right size is used if
    there is one. *)
let map_private (t : t) ~(vaddr : int) ?(init = Bytes.empty) ?backing
    ?(touch_user_cost = 0.0) ~(size : int) ~(label : string) () : unit =
  let size = max size (Bytes.length init) in
  let hi = vaddr + size in
  check_overlap t vaddr hi label;
  let bytes = Phys.buffer t.phys size in
  Bytes.blit init 0 bytes 0 (Bytes.length init);
  forget t;
  insert t
    {
      lo = vaddr;
      hi;
      bytes;
      writable = true;
      shared = false;
      label;
      touched = Array.make (npages size) false;
      init_len = Bytes.length init;
      backing = (match backing with Some b -> b | None -> resident_backing ());
      frames = Phys.alloc t.phys ~label ~bytes:size;
      touch_user_cost;
    }

(* Drop a mapping's frames. A private region's buffer is recycled, all
   zero again. Every write into it went through the [init] blit or a
   store that touched the page it starts in; a word store starting in
   the last three bytes of a page spills into the next page without
   touching it. So zeroing the init range, and each touched page plus
   three bytes past it, zeroes every byte that was written. *)
let release (t : t) (r : region) : unit =
  Phys.decref t.phys r.frames;
  if not r.shared then begin
    let b = r.bytes in
    let len = Bytes.length b in
    Bytes.fill b 0 r.init_len '\000';
    for page = 0 to Array.length r.touched - 1 do
      if r.touched.(page) then begin
        let lo = page lsl page_shift in
        Bytes.fill b lo (min (Cost.page_size + 3) (len - lo)) '\000'
      end
    done;
    Phys.recycle t.phys b
  end

(** Release all mappings (process teardown). *)
let destroy (t : t) : unit =
  forget t;
  List.iter (release t) t.regions;
  t.regions <- []

(** [unmap t ~lo] removes the region starting at [lo] (dynamic
    unlinking). Raises {!Fault} if no region starts there. *)
let unmap (t : t) ~(lo : int) : unit =
  match List.find_opt (fun r -> r.lo = lo) t.regions with
  | Some r ->
      forget t;
      release t r;
      t.regions <- List.filter (fun r' -> r'.lo <> lo) t.regions
  | None -> raise (Fault (Printf.sprintf "unmap: no region at 0x%x" lo))

let rec lookup addr = function
  | [] -> raise (Fault (Printf.sprintf "unmapped address 0x%x" addr))
  | r :: rest -> if addr >= r.lo && addr < r.hi then r else lookup addr rest

let find_region (t : t) (addr : int) : region =
  let h = t.hint in
  if addr >= h.lo && addr < h.hi then h
  else begin
    let r = lookup addr t.regions in
    t.hint <- r;
    r
  end

(* Demand-paging charge on first touch of a page. *)
let touch (t : t) (r : region) (off : int) : unit =
  let page = off lsr page_shift in
  if not r.touched.(page) then begin
    r.touched.(page) <- true;
    if r.touch_user_cost > 0.0 then Clock.charge_user t.clock r.touch_user_cost;
    let on_disk =
      page < Array.length r.backing.resident && not r.backing.resident.(page)
    in
    if on_disk then begin
      r.backing.resident.(page) <- true;
      t.stats.disk_faults <- t.stats.disk_faults + 1;
      Clock.charge_system t.clock t.cost.Cost.soft_fault;
      Clock.charge_io t.clock t.cost.Cost.disk_read_page
    end
    else begin
      t.stats.soft_faults <- t.stats.soft_faults + 1;
      Clock.charge_system t.clock t.cost.Cost.soft_fault
    end
  end

(** Pages touched in regions whose label satisfies [pred] — the working
    set measure used by the reordering experiment. *)
let touched_pages (t : t) ?(pred = fun _ -> true) () : int =
  List.fold_left
    (fun acc r ->
      if pred r.label then
        acc + Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.touched
      else acc)
    0 t.regions

let fault_stats (t : t) : int * int = (t.stats.soft_faults, t.stats.disk_faults)

(* -- accessors wired into the CPU -------------------------------------- *)

(* An access outside the data window, once it has passed its checks and
   touched its page, moves the window to that page of [r]. Every later
   access inside the page would find it touched and charge nothing, so
   skipping them is exact. A word access that crosses the page end
   touches only the page it starts in, so it never fits the window and
   keeps taking this path. *)
let open_data (t : t) (r : region) (off : int) : unit =
  let page_lo = r.lo + (off land lnot (Cost.page_size - 1)) in
  let m = t.mem in
  m.data <- r.bytes;
  m.data_base <- r.lo;
  m.data_lo <- page_lo;
  m.data_hi <- min (page_lo + Cost.page_size) r.hi;
  m.data_writable <- r.writable

let load8 (t : t) (addr : int) : int =
  let r = find_region t addr in
  let off = addr - r.lo in
  touch t r off;
  open_data t r off;
  Bytes.get_uint8 r.bytes off

let store8 (t : t) (addr : int) (v : int) : unit =
  let r = find_region t addr in
  if not r.writable then
    raise (Fault (Printf.sprintf "write to read-only %s at 0x%x" r.label addr));
  let off = addr - r.lo in
  touch t r off;
  open_data t r off;
  Bytes.set_uint8 r.bytes off (v land 0xff)

let load32 (t : t) (addr : int) : int =
  let r = find_region t addr in
  let off = addr - r.lo in
  if off + 4 > Bytes.length r.bytes then
    raise (Fault (Printf.sprintf "load32 spans end of %s at 0x%x" r.label addr));
  touch t r off;
  open_data t r off;
  Int32.to_int (Bytes.get_int32_le r.bytes off)

let store32 (t : t) (addr : int) (v : int) : unit =
  let r = find_region t addr in
  if not r.writable then
    raise (Fault (Printf.sprintf "write to read-only %s at 0x%x" r.label addr));
  let off = addr - r.lo in
  if off + 4 > Bytes.length r.bytes then
    raise (Fault (Printf.sprintf "store32 spans end of %s at 0x%x" r.label addr));
  touch t r off;
  open_data t r off;
  Bytes.set_int32_le r.bytes off (Int32.of_int v)

(* A fetch outside the code window: the lookup, demand-paging charge
   and checks of a single-instruction fetch, then the window moves to
   the page holding [pc]. Every later fetch in that page would find the
   page touched and charge nothing, so skipping them is exact. Bytes
   are read at execution time, so stores into writable code are seen. *)
let refill (t : t) (pc : int) : unit =
  let r = lookup pc t.regions in
  let off = pc - r.lo in
  touch t r off;
  if off land (Svm.Isa.width - 1) <> 0 || off + Svm.Isa.width > Bytes.length r.bytes then
    raise (Fault (Printf.sprintf "misaligned or out-of-range fetch at 0x%x" pc));
  let page_lo = r.lo + (off land lnot (Cost.page_size - 1)) in
  let m = t.mem in
  m.code <- r.bytes;
  m.code_base <- r.lo;
  m.code_lo <- page_lo;
  m.code_hi <- min (page_lo + Cost.page_size) (r.hi - Svm.Isa.width + 1)

let create ~(phys : Phys.t) ~(clock : Clock.t) ~(cost : Cost.t) () : t =
  let rec t =
    {
      regions = [];
      phys;
      clock;
      cost;
      stats = { soft_faults = 0; disk_faults = 0 };
      hint = no_region;
      mem =
        {
          Svm.Cpu.load8 = (fun a -> load8 t a);
          store8 = (fun a v -> store8 t a v);
          load32 = (fun a -> load32 t a);
          store32 = (fun a v -> store32 t a v);
          code = Bytes.empty;
          code_base = 0;
          code_lo = 0;
          code_hi = 0;
          refill = (fun pc -> refill t pc);
          data = Bytes.empty;
          data_base = 0;
          data_lo = 0;
          data_hi = 0;
          data_writable = false;
        };
    }
  in
  t

(** CPU memory interface for this address space. *)
let mem (t : t) : Svm.Cpu.mem = t.mem
