(** DeltaBlue: an incremental dataflow constraint solver.

    Paper §10: "A more sophisticated constraint system, based on the
    University of Washington's Delta-Blue constraint solver, has been
    developed in LISP and is being ported to OMOS and C++." This module
    is that port, done here in OCaml — a faithful implementation of the
    classic algorithm (Sannella/Freeman-Benson/Maloney/Borning,
    TR-92-07-05), including the two canonical workloads (chain and
    projection) used by the benchmark suite.

    The solver maintains a set of constraints over variables, each
    constraint carrying a strength; it keeps the system locally
    predicate-better satisfied using the walkabout-strength propagation
    scheme, and supports incremental addition and removal. *)

exception Cycle
exception Unsatisfiable_required

(* Strengths: smaller is stronger. *)
let required = 0
let preferred = 2
let strong_default = 3
let normal = 4
let weak_default = 5
let weakest = 6

let weaker a b = a > b
let weakest_of a b = max a b

type variable = {
  vname : string;
  mutable value : int;
  mutable constraints : cons list;
  mutable determined_by : cons option;
  mutable mark : int;
  mutable walk_strength : int;
  mutable stay : bool;
}

and ckind =
  | Stay of variable
  | Edit of variable
  | Equal of variable * variable (* methods: v2 := v1 | v1 := v2 *)
  | Scale of variable * variable * variable * variable
      (* (src, scale, offset, dest); methods:
         dest := src*scale + offset | src := (dest - offset) / scale *)

and cons = { strength : int; kind : ckind; mutable which : int (* -1 = unsatisfied *) }

type t = { mutable mark_counter : int; mutable edits : cons list }

let create () : t = { mark_counter = 0; edits = [] }

let variable name value =
  {
    vname = name;
    value;
    constraints = [];
    determined_by = None;
    mark = 0;
    walk_strength = weakest;
    stay = true;
  }

let new_mark (p : t) =
  p.mark_counter <- p.mark_counter + 1;
  p.mark_counter

(* -- methods ----------------------------------------------------------- *)

let method_count (c : cons) =
  match c.kind with Stay _ | Edit _ -> 1 | Equal _ | Scale _ -> 2

let output_of (c : cons) (m : int) : variable =
  match (c.kind, m) with
  | (Stay v | Edit v), _ -> v
  | Equal (_, v2), 0 -> v2
  | Equal (v1, _), _ -> v1
  | Scale (_, _, _, dest), 0 -> dest
  | Scale (src, _, _, _), _ -> src

let inputs_of (c : cons) (m : int) : variable list =
  match (c.kind, m) with
  | (Stay _ | Edit _), _ -> []
  | Equal (v1, _), 0 -> [ v1 ]
  | Equal (_, v2), _ -> [ v2 ]
  | Scale (src, scale, offset, _), 0 -> [ src; scale; offset ]
  | Scale (_, scale, offset, dest), _ -> [ dest; scale; offset ]

let is_satisfied (c : cons) = c.which >= 0
let output (c : cons) : variable = output_of c c.which
let inputs (c : cons) : variable list = inputs_of c c.which
let is_input (c : cons) = match c.kind with Edit _ -> true | _ -> false

let execute (c : cons) : unit =
  match (c.kind, c.which) with
  | (Stay _ | Edit _), _ -> ()
  | Equal (v1, v2), 0 -> v2.value <- v1.value
  | Equal (v1, v2), _ -> v1.value <- v2.value
  | Scale (src, scale, offset, dest), 0 ->
      dest.value <- (src.value * scale.value) + offset.value
  | Scale (src, scale, offset, dest), _ ->
      if scale.value = 0 then raise Cycle
      else src.value <- (dest.value - offset.value) / scale.value

(* -- core algorithm ---------------------------------------------------- *)

let variables_of (c : cons) : variable list =
  match c.kind with
  | Stay v | Edit v -> [ v ]
  | Equal (v1, v2) -> [ v1; v2 ]
  | Scale (a, b, c', d) -> [ a; b; c'; d ]

let add_to_graph (c : cons) =
  List.iter (fun v -> v.constraints <- c :: v.constraints) (variables_of c);
  c.which <- -1

let remove_from_graph (c : cons) =
  List.iter
    (fun v -> v.constraints <- List.filter (fun c' -> c' != c) v.constraints)
    (variables_of c);
  c.which <- -1

(* Choose the method with the weakest non-marked output that this
   constraint is strong enough to determine. *)
let choose_method (c : cons) (mark : int) : unit =
  c.which <- -1;
  let best = ref weakest in
  for m = 0 to method_count c - 1 do
    let out = output_of c m in
    if out.mark <> mark && weaker out.walk_strength c.strength then
      if c.which < 0 || weaker out.walk_strength !best then (
        c.which <- m;
        best := out.walk_strength)
  done

let mark_inputs (c : cons) (mark : int) : unit =
  List.iter (fun v -> v.mark <- mark) (inputs c)

let inputs_known (c : cons) (mark : int) : bool =
  List.for_all
    (fun v -> v.mark = mark || v.stay || v.determined_by = None)
    (inputs c)

(* Recompute walk_strength and stay of the constraint's output, and
   execute it if the output is a constant. *)
let recalculate (c : cons) : unit =
  let out = output c in
  out.walk_strength <-
    List.fold_left
      (fun acc v -> weakest_of acc v.walk_strength)
      c.strength (inputs c);
  out.stay <- (not (is_input c)) && List.for_all (fun v -> v.stay) (inputs c);
  if out.stay then execute c

let add_propagate (c : cons) (mark : int) : bool =
  let todo = Queue.create () in
  Queue.add c todo;
  let ok = ref true in
  (try
     while not (Queue.is_empty todo) do
       let d = Queue.pop todo in
       if (output d).mark = mark then (
         ok := false;
         raise Exit);
       recalculate d;
       let out = output d in
       List.iter
         (fun c' ->
           if c' != d && is_satisfied c' && List.memq out (inputs c') then
             Queue.add c' todo)
         out.constraints
     done
   with Exit -> ());
  !ok

let rec satisfy (c : cons) (mark : int) : cons option =
  choose_method c mark;
  if not (is_satisfied c) then
    if c.strength = required then raise Unsatisfiable_required else None
  else (
    mark_inputs c mark;
    let out = output c in
    let overridden = out.determined_by in
    (match overridden with Some o -> o.which <- -1 | None -> ());
    out.determined_by <- Some c;
    if not (add_propagate c mark) then raise Cycle;
    out.mark <- mark;
    overridden)

and incremental_add (p : t) (c : cons) : unit =
  let mark = new_mark p in
  let rec go = function
    | None -> ()
    | Some o -> go (satisfy o mark)
  in
  go (satisfy c mark)

(** [add_constraint p ~strength kind] builds, registers, and
    incrementally satisfies a constraint. Returns it for later
    removal. *)
let add_constraint (p : t) ~strength (kind : ckind) : cons =
  let c = { strength; kind; which = -1 } in
  add_to_graph c;
  incremental_add p c;
  (match kind with Edit _ -> p.edits <- c :: p.edits | _ -> ());
  c

(* Collect unsatisfied downstream constraints of [out], strongest
   first, and try to satisfy them again. *)
let remove_propagate_from (p : t) (out : variable) : unit =
  out.determined_by <- None;
  out.walk_strength <- weakest;
  out.stay <- true;
  let unsatisfied = ref [] in
  let todo = Queue.create () in
  Queue.add out todo;
  while not (Queue.is_empty todo) do
    let v = Queue.pop todo in
    List.iter
      (fun c ->
        if not (is_satisfied c) then unsatisfied := c :: !unsatisfied)
      v.constraints;
    List.iter
      (fun c ->
        if is_satisfied c && List.memq v (inputs c) then (
          recalculate c;
          Queue.add (output c) todo))
      v.constraints
  done;
  let by_strength = List.sort (fun a b -> compare a.strength b.strength) !unsatisfied in
  List.iter (fun c -> incremental_add p c) by_strength

(** [remove_constraint p c] removes [c] and re-satisfies anything it was
    holding up. *)
let remove_constraint (p : t) (c : cons) : unit =
  if is_satisfied c then (
    let out = output c in
    c.which <- -1;
    remove_from_graph c;
    remove_propagate_from p out)
  else remove_from_graph c;
  p.edits <- List.filter (fun c' -> c' != c) p.edits

(* -- plans -------------------------------------------------------------- *)

(** An execution plan: constraints in dataflow order. *)
type plan = cons list

let make_plan (p : t) (sources : cons list) : plan =
  let mark = new_mark p in
  let plan = ref [] in
  let todo = Queue.create () in
  List.iter (fun c -> Queue.add c todo) sources;
  while not (Queue.is_empty todo) do
    let c = Queue.pop todo in
    let out = output c in
    if out.mark <> mark && inputs_known c mark then (
      plan := c :: !plan;
      out.mark <- mark;
      List.iter
        (fun c' ->
          if c' != c && is_satisfied c' && List.memq out (inputs c') then
            Queue.add c' todo)
        out.constraints)
  done;
  List.rev !plan

(** Plan for re-executing the system after the current edit constraints
    change their variables. *)
let extract_plan_from_edits (p : t) : plan =
  let sources =
    List.filter (fun c -> is_input c && is_satisfied c) p.edits
  in
  make_plan p sources

let execute_plan (plan : plan) : unit = List.iter execute plan

(* -- canonical benchmark workloads -------------------------------------- *)

(** [chain_test n] builds the classic n-variable equality chain with a
    stay on the last variable, then measures plan execution by editing
    the head. Returns the final value of the tail (= the edited value)
    so callers can assert correctness. *)
let chain_test (n : int) : int =
  let p = create () in
  let vars = Array.init (n + 1) (fun i -> variable (Printf.sprintf "v%d" i) 0) in
  for i = 0 to n - 1 do
    ignore (add_constraint p ~strength:required (Equal (vars.(i), vars.(i + 1))))
  done;
  ignore (add_constraint p ~strength:strong_default (Stay vars.(n)));
  let edit = add_constraint p ~strength:preferred (Edit vars.(0)) in
  let plan = extract_plan_from_edits p in
  for v = 1 to 100 do
    vars.(0).value <- v;
    execute_plan plan
  done;
  remove_constraint p edit;
  vars.(n).value

(** [projection_test n] builds n scale constraints src*10+1000 = dst,
    edits a src and a dst, and checks propagation both ways. Returns
    true if all re-plans produced consistent values. *)
let projection_test (n : int) : bool =
  let p = create () in
  let scale = variable "scale" 10 in
  let offset = variable "offset" 1000 in
  let srcs = ref [] and dsts = ref [] in
  for i = 0 to n - 1 do
    let src = variable (Printf.sprintf "src%d" i) i in
    let dst = variable (Printf.sprintf "dst%d" i) i in
    srcs := src :: !srcs;
    dsts := dst :: !dsts;
    ignore (add_constraint p ~strength:normal (Stay src));
    ignore (add_constraint p ~strength:required (Scale (src, scale, offset, dst)))
  done;
  let change (v : variable) (value : int) =
    let edit = add_constraint p ~strength:preferred (Edit v) in
    let plan = extract_plan_from_edits p in
    v.value <- value;
    execute_plan plan;
    remove_constraint p edit
  in
  let src0 = List.nth (List.rev !srcs) 0 in
  let dst0 = List.nth (List.rev !dsts) 0 in
  change src0 17;
  let ok1 = dst0.value = 1170 in
  change dst0 1050;
  let ok2 = src0.value = 5 in
  ok1 && ok2
