(** Per-process virtual address spaces with demand paging.

    A space is a set of non-overlapping regions. Read-only regions can
    be {e shared}: their backing bytes and physical frames belong to a
    cached image and are referenced, not copied. Writable regions are
    private copies. Every region is demand-paged: the first touch of
    each page charges a soft fault (resident backing) or a disk read
    (first-ever load of a segment still "on disk"), plus an optional
    per-page user cost (deferred-relocation modelling).

    The CPU executes, loads and stores straight from the region bytes
    through the code and data windows of {!mem}: an access outside a
    window pays the same lookup, charge and checks a single access
    would, then the window moves to the page it touched. Mapping or
    unmapping anything empties both windows.

    Releasing a private region (by {!unmap} or {!destroy}) re-zeroes
    the pages it touched and its [init] range and hands its buffer to
    the {!Phys.t}; {!map_private} takes a buffer of the right size from
    there before it allocates. *)

exception Fault of string

(** Residency of a segment's source, page by page, SHARED by every
    process mapping the segment: the first process to touch a page pays
    the disk read. An empty array means "always resident". *)
type backing_state = { resident : bool array }

type region = {
  lo : int;
  hi : int; (* exclusive *)
  bytes : Bytes.t;
  writable : bool;
  shared : bool;
  label : string;
  touched : bool array; (* per-page demand accounting *)
  init_len : int; (* bytes copied in from [init] at map time *)
  backing : backing_state;
  frames : Phys.frame_group;
  touch_user_cost : float;
}

type t

val create : phys:Phys.t -> clock:Clock.t -> cost:Cost.t -> unit -> t

val regions : t -> region list

(** Backing that must be demand-loaded from disk, for a segment of
    [bytes] bytes. *)
val disk_backing : bytes:int -> backing_state

(** Map a read-only shared segment: backing bytes and frames are
    referenced, not copied. *)
val map_shared :
  t ->
  vaddr:int ->
  bytes:Bytes.t ->
  frames:Phys.frame_group ->
  backing:backing_state ->
  ?touch_user_cost:float ->
  label:string ->
  unit ->
  unit

(** Map a private writable region, initialized from [init]
    (zero-filled beyond it), in a recycled buffer if one of its size is
    free. *)
val map_private :
  t ->
  vaddr:int ->
  ?init:Bytes.t ->
  ?backing:backing_state ->
  ?touch_user_cost:float ->
  size:int ->
  label:string ->
  unit ->
  unit

(** Release all mappings (process teardown). *)
val destroy : t -> unit

(** Remove the region starting at [lo] (dynamic unlinking).
    @raise Fault if no region starts there. *)
val unmap : t -> lo:int -> unit

(** Pages touched in regions whose label satisfies [pred] — the
    working-set measure used by the reordering experiment. *)
val touched_pages : t -> ?pred:(string -> bool) -> unit -> int

(** (soft faults, disk faults) so far. *)
val fault_stats : t -> int * int

(** Raw accessors (each may fault and charges demand-paging costs; an
    access that passes moves the data window to its page). *)

val load8 : t -> int -> int
val store8 : t -> int -> int -> unit
val load32 : t -> int -> int
val store32 : t -> int -> int -> unit

(** CPU memory interface for this address space: one record per space,
    so every CPU attached to it shares the code window. *)
val mem : t -> Svm.Cpu.mem
