(** The OMOS namespace (paper §3.2): a hierarchical name space "whose
    names represent meta-objects, executable code fragments, or
    directories of other objects". *)

exception Namespace_error of string

type entry =
  | Fragment of Sof.Object_file.t  (** a relocatable, e.g. /obj/ls.o *)
  | Meta of Blueprint.Meta.t  (** a meta-object *)
  | Directory of (string, entry) Hashtbl.t

type t

val create : unit -> t

(** {1 Content addresses}

    Every path has a content address, a digest of what is bound there,
    and every m-graph node has one too, so that two constructions with
    the same address are the same construction. A fragment's address is
    its {!Sof.Codec.digest}. A meta-object's address is a Merkle digest
    over its effective graph ([spec = None]): each node digests its
    operator, its parameters and its operands' addresses, and the
    address of a [Name p] node spells out [p] and the address of [p]'s
    binding. An unbound path (or a directory) has a placeholder address
    derived from the path; a [Name] cycle gets one too.

    Addresses are memoized per path and computed lazily, a fragment's
    once per bind. A binding's memoized address is dropped only when a
    binding it reaches changes: the namespace keeps a reverse-dependency
    index from every path a meta-object names (bound or not) to the
    meta-objects naming it. *)

(** Content address of the binding at [path] (bound or not). *)
val address : t -> string -> string

(** Content address of a node. Nodes of a bound meta-object's graph
    answer from a table filled when that meta's address is computed;
    any other node (a wrapper {!Blueprint.Meta.effective_graph} makes,
    a static client's graph) is digested from its operands' addresses,
    so no fragment is re-encoded once its binding's address is known. *)
val node_address : t -> Blueprint.Mgraph.node -> string

(** [dependents t path] is the canonical spelling of [path] followed by
    every meta-object that reaches it through [Name] nodes,
    transitively, in sorted order: the bindings whose content an edit
    at [path] can change. *)
val dependents : t -> string -> string list
val lookup : t -> string -> entry option
val exists : t -> string -> bool

(** Bind an entry at a path, creating directories.
    @raise Namespace_error if a path component is not a directory. *)
val bind : t -> string -> entry -> unit

val bind_fragment : t -> string -> Sof.Object_file.t -> unit
val bind_meta : t -> string -> Blueprint.Meta.t -> unit
val unbind : t -> string -> unit

(** Entries of a directory, sorted. @raise Namespace_error. *)
val list : t -> string -> (string * [ `Fragment | `Meta | `Directory ]) list

(** All meta-object paths (administrative listings). *)
val all_metas : t -> string list
