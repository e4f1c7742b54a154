(** Executable images: the "mappable result" of evaluating an m-graph.

    An image is a set of positioned segments plus an entry point and an
    exported symbol table. Images are what OMOS caches and maps into
    client address spaces; their read-only segments are the unit of
    physical sharing between processes. *)

type segment = {
  seg_name : string; (* "text" / "data" *)
  vaddr : int;
  bytes : Bytes.t;
  writable : bool;
}

(** Per-image memo: the digest and the symbol index, each filled on
    first use. *)
type memo

(** An image is built once and never changed, so what is derived from
    its contents is derived at most once: {!digest} and {!find_symbol}
    read [memo] after their first call. Values are built only by
    {!make} and {!with_name}.

    The invariant the memo relies on: segment bytes are never written
    after {!make}. The simulated OS maps read-only segments shared
    ([Addr_space.store8]/[store32] fault on them) and copies writable
    segments into private regions ([Addr_space.map_private]), so a
    running process, lazy binding included, writes only its copies. *)
type t = private {
  name : string;
  segments : segment list;
  bss_vaddr : int;
  bss_size : int;
  entry : int;  (** absolute address of the entry symbol; -1 if none *)
  symtab : (string * int) list;  (** exported name → absolute address *)
  reloc_work : int;  (** relocations applied while building *)
  memo : memo;
}

val make :
  name:string ->
  segments:segment list ->
  bss_vaddr:int ->
  bss_size:int ->
  entry:int ->
  symtab:(string * int) list ->
  reloc_work:int ->
  t

(** The same image under another name. Its digest slot starts empty,
    since the name is part of the digest. *)
val with_name : t -> string -> t

(** The address of an exported symbol, in O(1) through an index built
    on first lookup. Where the symbol table repeats a name, the first
    occurrence wins, as with [List.assoc_opt]. *)
val find_symbol : t -> string -> int option

(** The address of [name] in the first of [imgs] that exports it: how a
    link or a lazy binder resolves a name against several images. *)
val find_symbol_in : t list -> string -> int option

(** Total bytes of initialized segments. *)
val loaded_size : t -> int

val text_segment : t -> segment option
val data_segment : t -> segment option

(** Address range [lo, hi) spanned by the image (segments + bss). *)
val extent : t -> int * int

(** Content digest, stable across builds of identical images. Placement
    is part of the identity: the same library at a different base is a
    different image. The bytes are hashed on the first call only; every
    real hash counts in the [linker.image_digests] counter. *)
val digest : t -> string

(** Copy all segments into a flat memory buffer at their virtual
    addresses and zero the bss — the single-process loading path used
    by tests and examples without the full simulated OS. *)
val load_into_flat : t -> Bytes.t -> unit

(** Serialize to bytes — the on-"disk" executable format the
    traditional exec path reads and parses. *)
val encode : t -> Bytes.t

(** [Bytes.length (encode img)], computed from the fields. *)
val encoded_size : t -> int

exception Decode_error of string

(** Parse bytes produced by {!encode}. @raise Decode_error. *)
val decode : Bytes.t -> t

val pp : Format.formatter -> t -> unit
