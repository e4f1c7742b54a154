(** Physical-memory accounting.

    The unit of sharing in OMOS is the read-only segment of a cached
    image: every client that maps it references the same physical
    frames. This module tracks frames and reference counts so the
    benchmarks can report real memory use (the dispatch-table-vs-sharing
    experiment) without scattering actual bytes across frame objects —
    region contents stay in their backing [Bytes.t]. *)

type frame_group = {
  id : int;
  label : string;
  pages : int;
  mutable refs : int; (* how many mappings share this group *)
}

type t = {
  groups : (int, frame_group) Hashtbl.t; (* live groups by id *)
  mutable next_id : int;
  page_size : int;
  (* all-zero buffers of released private regions, oldest first in
     [free.(0 .. nfree - 1)]; the rest of the array is [Bytes.empty] *)
  free : Bytes.t array;
  mutable nfree : int;
  mutable free_bytes : int;
}

(* Bytes of released buffers kept for reuse: about one process's heap
   and stack (2 x 256 KB, see [Kernel]) plus its data and bss. *)
let recycle_budget = 0xA0000
let recycle_slots = 32

let create ?(page_size = Cost.page_size) () : t =
  {
    groups = Hashtbl.create 64;
    next_id = 0;
    page_size;
    free = Array.make recycle_slots Bytes.empty;
    nfree = 0;
    free_bytes = 0;
  }

let pages_for (t : t) (bytes : int) : int =
  (bytes + t.page_size - 1) / t.page_size

(** Allocate a group of frames backing [bytes] bytes. *)
let alloc (t : t) ~(label : string) ~(bytes : int) : frame_group =
  let g = { id = t.next_id; label; pages = max 1 (pages_for t bytes); refs = 1 } in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.groups g.id g;
  g

(** Share an existing group (another process maps the same segment). *)
let addref (g : frame_group) : unit = g.refs <- g.refs + 1

(** Drop one reference; the group is freed when refs reach zero. *)
let decref (t : t) (g : frame_group) : unit =
  g.refs <- g.refs - 1;
  if g.refs <= 0 then Hashtbl.remove t.groups g.id

(** Physical pages actually allocated. *)
let resident_pages (t : t) : int =
  Hashtbl.fold (fun _ g acc -> acc + g.pages) t.groups 0

(** Pages as they appear summed over every process's mappings — the
    no-sharing counterfactual. *)
let mapped_pages (t : t) : int =
  Hashtbl.fold (fun _ g acc -> acc + (g.pages * g.refs)) t.groups 0

(** Pages saved by sharing. *)
let saved_pages (t : t) : int = mapped_pages t - resident_pages t

(* Remove slot [i] of the free list, keeping the order of the rest. *)
let remove_free (t : t) (i : int) : unit =
  t.free_bytes <- t.free_bytes - Bytes.length t.free.(i);
  Array.blit t.free (i + 1) t.free i (t.nfree - i - 1);
  t.nfree <- t.nfree - 1;
  t.free.(t.nfree) <- Bytes.empty

(** Keep the all-zero buffer [b] of a released private region for
    {!buffer}. The newest buffers are kept, up to {!recycle_budget}
    bytes; the oldest are dropped to make room. *)
let recycle (t : t) (b : Bytes.t) : unit =
  let n = Bytes.length b in
  if n <= recycle_budget then begin
    while t.nfree = recycle_slots || t.free_bytes + n > recycle_budget do
      remove_free t 0
    done;
    t.free.(t.nfree) <- b;
    t.nfree <- t.nfree + 1;
    t.free_bytes <- t.free_bytes + n
  end

(** An all-zero buffer of [size] bytes: the newest recycled one of
    that size, taken off the list, or else a new one. *)
let buffer (t : t) (size : int) : Bytes.t =
  let rec find i =
    if i < 0 then Bytes.make size '\000'
    else if Bytes.length t.free.(i) = size then begin
      let b = t.free.(i) in
      remove_free t i;
      b
    end
    else find (i - 1)
  in
  find (t.nfree - 1)

(** Bytes held in recycled buffers. *)
let recycled_bytes (t : t) : int = t.free_bytes

let pp ppf (t : t) =
  Format.fprintf ppf "resident=%d mapped=%d saved=%d (pages)" (resident_pages t)
    (mapped_pages t) (saved_pages t)
