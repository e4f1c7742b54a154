(** The symbol-flow lattice: abstract Jigsaw modules over name sets.

    Mirrors {!Jigsaw.Module_ops} at the granularity the namespace
    operators work at — per-fragment sets of defined, referenced and
    constructor names — without section bytes, views, or relocations.
    Every operator replays the exact semantics of its concrete
    counterpart (including the [n$frzI]/[n$hidI] freeze manglings), so
    the predicted {!exports}/{!undefined} of a blueprint equal what
    evaluation would produce, with no view materialized and no
    simulated cost charged. *)

module S : Set.S with type elt = string

(** One object-file fragment, reduced to its namespace. [f_defs] keeps
    symbol-table order and multiplicity (duplicate global definitions
    must stay visible for conflict detection). *)
type frag = {
  f_src : string;
  f_defs : (string * Sof.Symbol.binding) list;
  f_undefs : S.t;
  f_relocs : S.t;
  f_ctors : string list;
}

type t = {
  frags : frag list;
  frozen : S.t;  (** public names whose bindings were made permanent *)
  hidden : S.t;  (** public names renamed away by [hide]/[show] *)
}

val empty : t
val of_object : Sof.Object_file.t -> t

(** {1 Queries} *)

(** Abstract {!Jigsaw.Module_ops.exports}: global/weak definition
    names, sorted and deduplicated. *)
val exports : t -> string list

(** Names defined anywhere in the module, at any visibility. Sorted. *)
val defined_any : t -> string list

(** Abstract {!Jigsaw.Module_ops.undefined}: names referenced but
    exported nowhere inside the module. Sorted. *)
val undefined : t -> string list

(** Duplicate global definitions across (and within) the fragments, in
    discovery order: [(name, first_src, second_src)]. Non-empty means
    a concrete [merge] of these fragments raises [Module_error]. *)
val duplicate_globals : frag list -> (string * string * string) list

(** Definition and constructor names matching the predicate — what a
    [restrict]'s [Undefine] would actually touch. Sorted. *)
val touched : (string -> bool) -> t -> string list

(** {1 Operator mirrors}

    Each function is the abstract counterpart of the same-named
    {!Jigsaw.Module_ops} operator. None of them raises: conflict
    detection is a separate query, and the lattice continues past
    errors. *)

val merge : t -> t -> t
val override : t -> t -> t
val restrict : (string -> bool) -> t -> t
val project : (string -> bool) -> t -> t
val copy_as : (string -> string option) -> t -> t
val rename :
  Jigsaw.Module_ops.rename_scope -> (string -> string option) -> t -> t

(** [gensym] must replay the mangling-id sequence the concrete
    evaluation will mint — it is drawn unconditionally, even when the
    selection is empty, exactly like {!Jigsaw.Module_ops.freeze}. *)
val freeze : gensym:(unit -> int) -> (string -> bool) -> t -> t

val hide : gensym:(unit -> int) -> (string -> bool) -> t -> t

(** Hides every export {e not} selected, one victim (and one mangling
    id) at a time, in sorted-export order. *)
val show : gensym:(unit -> int) -> (string -> bool) -> t -> t

val initializers : t -> t
