(** Physical-memory accounting.

    The unit of sharing in OMOS is the read-only segment of a cached
    image: every client that maps it references the same physical
    frames. This module tracks frame groups and reference counts so
    benchmarks can report real memory use; region contents stay in
    their backing [Bytes.t]. *)

type frame_group = {
  id : int;
  label : string;
  pages : int;
  mutable refs : int;  (** how many mappings share this group *)
}

type t

val create : ?page_size:int -> unit -> t

(** Allocate a group of frames backing [bytes] bytes (refcount 1). *)
val alloc : t -> label:string -> bytes:int -> frame_group

(** Share an existing group (another process maps the same segment). *)
val addref : frame_group -> unit

(** Drop one reference; the group is freed at zero. *)
val decref : t -> frame_group -> unit

(** Physical pages actually allocated. *)
val resident_pages : t -> int

(** Pages summed over every mapping — the no-sharing counterfactual. *)
val mapped_pages : t -> int

(** Pages saved by sharing. *)
val saved_pages : t -> int

(** Keep the all-zero buffer of a released private region for
    {!buffer}. The newest buffers are kept up to a fixed budget per [t]
    (about one process's heap and stack); the oldest are dropped to make
    room. *)
val recycle : t -> Bytes.t -> unit

(** An all-zero buffer of the given size: the newest recycled one of
    that size, taken off the list, or else a new one. *)
val buffer : t -> int -> Bytes.t

(** Bytes held in recycled buffers. *)
val recycled_bytes : t -> int

val pp : Format.formatter -> t -> unit
