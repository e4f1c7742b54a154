(** DeltaBlue: an incremental dataflow constraint solver — the paper's
    §10 future-work port, implemented faithfully after
    Sannella/Freeman-Benson/Maloney/Borning (TR-92-07-05), including
    the two canonical benchmark workloads. *)

exception Cycle
exception Unsatisfiable_required

(** Strengths: smaller is stronger. *)

val required : int
val preferred : int
val strong_default : int
val normal : int
val weak_default : int
val weakest : int

type variable = {
  vname : string;
  mutable value : int;
  mutable constraints : cons list;
  mutable determined_by : cons option;
  mutable mark : int;
  mutable walk_strength : int;
  mutable stay : bool;
}

(** Constraint kinds and their methods:
    [Stay]/[Edit] determine their variable; [Equal (a, b)] flows either
    way; [Scale (src, scale, offset, dest)] computes
    [dest = src*scale + offset] or its inverse. *)
and ckind =
  | Stay of variable
  | Edit of variable
  | Equal of variable * variable
  | Scale of variable * variable * variable * variable

and cons = { strength : int; kind : ckind; mutable which : int }

type t

val create : unit -> t
val variable : string -> int -> variable

val is_satisfied : cons -> bool

(** [add_constraint p ~strength kind] builds, registers, and
    incrementally satisfies a constraint (walkabout-strength
    propagation). Returns it for later removal.
    @raise Unsatisfiable_required when a required constraint cannot be
    satisfied; @raise Cycle on constraint cycles. *)
val add_constraint : t -> strength:int -> ckind -> cons

(** [remove_constraint p c] removes [c] and re-satisfies anything it
    was holding up. *)
val remove_constraint : t -> cons -> unit

(** An execution plan: constraints in dataflow order. *)
type plan = cons list

(** Plan for re-executing the system after the current edit constraints
    change their variables. *)
val extract_plan_from_edits : t -> plan

val execute_plan : plan -> unit

(** The classic n-variable equality chain benchmark; returns the tail
    value after 100 edits of the head (must be 100). *)
val chain_test : int -> int

(** The classic projection benchmark (scale/offset constraints edited
    from both ends); returns whether propagation stayed consistent. *)
val projection_test : int -> bool
