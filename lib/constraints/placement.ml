(** The OMOS address-space constraint system (paper §3.5).

    "OMOS describes an address space in terms of prioritized
    constraints. A required constraint is that no two objects may
    overlap. A highly desired constraint is that existing
    implementations be reused. Other weaker constraints, optionally
    provided by the user, may specify desired placement of the object
    (e.g., library) within the address space."

    An {!arena} records which intervals of a (shared, virtual) address
    space are occupied by which named object. {!place} answers a
    placement request by honouring, in priority order:

    - the required no-overlap constraint (never violated);
    - reuse of an existing placement of the same object, when the caller
      passes one and it does not conflict;
    - the caller's weak preferences ([At] / [Near] / [Within] /
      [Avoid]), tried strongest-first, each dropped if unsatisfiable;
    - finally first-fit within the arena's default region. *)

exception No_space of string

(** A weak placement preference. *)
type pref =
  | At of int (* exactly this base address *)
  | Near of int (* as close as possible to this address *)
  | Within of int * int (* inside [lo, hi) *)
  | Avoid of int * int (* outside [lo, hi) if possible *)

let pp_pref ppf = function
  | At a -> Format.fprintf ppf "at 0x%x" a
  | Near a -> Format.fprintf ppf "near 0x%x" a
  | Within (lo, hi) -> Format.fprintf ppf "within [0x%x,0x%x)" lo hi
  | Avoid (lo, hi) -> Format.fprintf ppf "avoid [0x%x,0x%x)" lo hi

type interval = { lo : int; hi : int; owner : string }

type t = {
  mutable occupied : interval list; (* sorted by lo, non-overlapping *)
  mutable version : int; (* bumped by every write to [occupied] *)
  region_lo : int; (* default allocation region *)
  region_hi : int;
  align : int; (* base alignment for all placements (page size) *)
}

let create ?(region_lo = 0x1000) ?(region_hi = 0x7FFF_F000) ?(align = 0x1000) () : t =
  if align <= 0 || region_lo < 0 || region_hi <= region_lo then
    invalid_arg "Placement.create";
  { occupied = []; version = 0; region_lo; region_hi; align }

(** How many times [occupied] has been written: equal versions of one
    arena mean equal interval sets. *)
let version (t : t) : int = t.version

let intervals (t : t) : (int * int * string) list =
  List.map (fun i -> (i.lo, i.hi, i.owner)) t.occupied

(** [owns t ~owner ~lo ~hi] — does an interval of [owner] start exactly
    at [lo] and reach at least [hi]? Scans the sorted intervals up to
    [lo] without materializing them. *)
let owns (t : t) ~owner ~lo ~hi : bool =
  let rec go = function
    | [] -> false
    | i :: rest ->
        i.lo <= lo && ((i.lo = lo && i.hi >= hi && i.owner = owner) || go rest)
  in
  go t.occupied

(** Base alignment of every placement in this arena (callers that
    [reserve] ranges a [place] may later have to coexist with should
    align their sizes the same way). *)
let align (t : t) : int = t.align

let align_up v a = (v + a - 1) / a * a

let overlaps t lo hi =
  List.find_opt (fun i -> lo < i.hi && i.lo < hi) t.occupied

(** [free t lo hi] — is [lo,hi) completely unoccupied? *)
let free (t : t) ~lo ~hi : bool = overlaps t lo hi = None

(* Insert keeping sort order. *)
let insert (t : t) (iv : interval) : unit =
  let rec go = function
    | [] -> [ iv ]
    | x :: rest -> if iv.lo < x.lo then iv :: x :: rest else x :: go rest
  in
  t.occupied <- go t.occupied;
  t.version <- t.version + 1

(** [reserve t ~lo ~size owner] claims an exact interval; [Error owner']
    names the conflicting occupant if any. *)
let reserve (t : t) ~lo ~size owner : (unit, string) result =
  let hi = lo + size in
  match overlaps t lo hi with
  | Some i -> Error i.owner
  | None ->
      insert t { lo; hi; owner };
      Ok ()

(** [release t ~lo] frees the interval starting at [lo]. *)
let release (t : t) ~lo : unit =
  t.occupied <- List.filter (fun i -> i.lo <> lo) t.occupied;
  t.version <- t.version + 1

(* Candidate base addresses adjacent to occupied intervals plus region
   start: the classic first-fit gap scan. *)
let gap_candidates (t : t) : int list =
  t.region_lo :: List.map (fun i -> align_up i.hi t.align) t.occupied

let fits t lo size =
  lo >= t.region_lo && lo + size <= t.region_hi && free t ~lo ~hi:(lo + size)

(* First fit at or above [from]. *)
let first_fit_from (t : t) ~from ~size : int option =
  let cands =
    List.sort_uniq compare
      (List.filter (fun c -> c >= from) (align_up from t.align :: gap_candidates t))
  in
  List.find_opt (fun c -> fits t c size) cands

(* Closest fit to [target] (scan candidates by distance). In addition
   to the gap starts, consider bases placed flush below each occupied
   interval — the closest position on the low side of a "wall". *)
let closest_fit (t : t) ~target ~size : int option =
  let below =
    List.map (fun i -> (i.lo - size) / t.align * t.align) t.occupied
  in
  let cands =
    List.sort_uniq compare (align_up target t.align :: (gap_candidates t @ below))
  in
  let ok = List.filter (fun c -> fits t c size) cands in
  match ok with
  | [] -> None
  | _ ->
      let dist c = abs (c - target) in
      Some (List.fold_left (fun best c -> if dist c < dist best then c else best)
              (List.hd ok) ok)

let try_pref (t : t) ~size = function
  | At a -> if a mod t.align = 0 && fits t a size then Some a else None
  | Near a -> closest_fit t ~target:a ~size
  | Within (lo, hi) ->
      Option.bind (first_fit_from t ~from:lo ~size) (fun c ->
          if c + size <= hi then Some c else None)
  | Avoid (lo, hi) -> (
      (* prefer below the avoided range, then above it *)
      match
        Option.bind (first_fit_from t ~from:t.region_lo ~size) (fun c ->
            if c + size <= lo then Some c else None)
      with
      | Some c -> Some c
      | None -> first_fit_from t ~from:(align_up hi t.align) ~size)

(** Outcome of a placement decision. *)
type decision = {
  base : int;
  reused : bool; (* an existing placement was kept *)
  satisfied : pref option; (* which preference was honoured, if any *)
}

(** [place t ~size ~owner ?existing ?prefs ()] chooses a base address.

    [existing] is a previously cached placement of the same object: if
    it is still available (or already owned by [owner]), it is reused —
    the paper's "highly desired" constraint that gives physical sharing.
    [prefs] are (priority, preference) pairs; higher priority first.
    Raises {!No_space} if the arena cannot fit [size] at all. *)
let tm_placements = Telemetry.Counter.make "constraints.placements"
let tm_reuses = Telemetry.Counter.make "constraints.reuses"

let place_raw (t : t) ~size ~owner ?existing ?(prefs = []) () : decision =
  let size = align_up (max size 1) t.align in
  let reuse =
    match existing with
    | Some lo -> (
        match overlaps t lo (lo + size) with
        | None -> Some lo (* free: re-reserve it *)
        | Some i when i.owner = owner && i.lo = lo -> Some lo (* already ours *)
        | Some _ -> None)
    | None -> None
  in
  match reuse with
  | Some lo ->
      if free t ~lo ~hi:(lo + size) then insert t { lo; hi = lo + size; owner };
      { base = lo; reused = true; satisfied = None }
  | None -> (
      let sorted =
        List.map snd (List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs)
      in
      let rec try_all = function
        | [] -> None
        | p :: rest -> (
            match try_pref t ~size p with
            | Some base -> Some (base, Some p)
            | None -> try_all rest)
      in
      let found =
        match try_all sorted with
        | Some (base, p) -> Some (base, p)
        | None ->
            Option.map (fun b -> (b, None)) (first_fit_from t ~from:t.region_lo ~size)
      in
      match found with
      | None -> raise (No_space owner)
      | Some (base, satisfied) ->
          insert t { lo = base; hi = base + size; owner };
          { base; reused = false; satisfied })

(** One member of a batched placement request. *)
type batch_item = {
  bi_size : int;
  bi_owner : string;
  bi_existing : int option;
  bi_prefs : (int * pref) list;
}

let tm_batch_solves = Telemetry.Counter.make "constraints.batch_solves"
let tm_batch_packed = Telemetry.Counter.make "constraints.batch_packed"

(* Is an item eligible for the packed-run fast path? Items with an
   existing placement or weak preferences keep their own solve. *)
let simple (i : batch_item) : bool = i.bi_existing = None && i.bi_prefs = []

(* Pack a maximal run of simple items as one DeltaBlue chain: find a
   single gap for the whole run, chain base[i+1] = base[i] + size[i],
   and reserve every member at its planned base. Returns [None] when no
   single gap fits the run (callers fall back to per-item solves). *)
let pack_run (t : t) (run : batch_item list) : decision list option =
  let sizes = List.map (fun i -> align_up (max i.bi_size 1) t.align) run in
  (* Packing must be invisible: it may only fire when the chain lands
     exactly where one-at-a-time first fit would put every member. On a
     fragmented arena the sequential answers can split across gaps —
     simulate them, and fall back to per-item solves unless they form
     one contiguous chain. The simulation runs on a copy, so the arena
     itself is never written unless the run packs. *)
  let sim = { t with occupied = t.occupied } in
  let bases =
    List.map
      (fun s ->
        match first_fit_from sim ~from:sim.region_lo ~size:s with
        | None -> None
        | Some b ->
            insert sim { lo = b; hi = b + s; owner = "#pack-sim" };
            Some b)
      sizes
  in
  let contiguous =
    List.for_all Option.is_some bases
    &&
    let rec chk = function
      | (Some b1, s1) :: ((Some b2, _) :: _ as rest) ->
          b1 + s1 = b2 && chk rest
      | _ -> true
    in
    chk (List.combine bases sizes)
  in
  match (contiguous, bases) with
  | false, _ | _, [] | _, None :: _ -> None
  | true, Some base :: _ ->
      let members =
        List.mapi (fun k (i, s) -> (string_of_int k ^ ":" ^ i.bi_owner, s))
          (List.combine run sizes)
      in
      let chain = Db_layout.create ~base members in
      assert (Db_layout.packed chain);
      Telemetry.Counter.incr tm_batch_packed;
      Some
        (List.map
           (fun (name, b, s) ->
             let owner =
               match String.index_opt name ':' with
               | Some k -> String.sub name (k + 1) (String.length name - k - 1)
               | None -> name
             in
             insert t { lo = b; hi = b + s; owner };
             { base = b; reused = false; satisfied = None })
           (Db_layout.layout chain))

(* The traced entry point: a span per placement decision plus the
   arena-level counters. *)
let place (t : t) ~size ~owner ?existing ?(prefs = []) () : decision =
  let span =
    Telemetry.Span.enter "constraints.place"
      ~attrs:[ ("owner", Telemetry.S owner); ("size", Telemetry.I size) ]
  in
  match place_raw t ~size ~owner ?existing ~prefs () with
  | d ->
      Telemetry.Counter.incr tm_placements;
      if d.reused then Telemetry.Counter.incr tm_reuses;
      Telemetry.Span.add_attr span "base" (Telemetry.I d.base);
      Telemetry.Span.add_attr span "reused" (Telemetry.B d.reused);
      Telemetry.Span.exit span;
      d
  | exception e ->
      Telemetry.Span.exit span;
      raise e

(** [place_batch t items] solves the address constraints of a whole
    queue of placement requests in one pass. Maximal runs of
    unconstrained fresh items (no reuse candidate, no preferences) are
    packed as one DeltaBlue chain into a single gap — on a contiguous
    free region this reproduces the first-fit answers the items would
    have received one at a time; items carrying reuse candidates or
    preferences are solved individually, in submission order, inside
    the same pass. Decisions come back in item order.

    [wrap i item solve] brackets the individual solve of [item] (index
    [i]); callers hang request attribution and fault hooks there. The
    members of a packed run are solved jointly, so [wrap] is not
    applied to them. *)
let place_batch (t : t) ?(wrap = fun _ _ f -> f ()) (items : batch_item list) :
    decision list =
  let span =
    Telemetry.Span.enter "constraints.place_batch"
      ~attrs:[ ("n", Telemetry.I (List.length items)) ]
  in
  Fun.protect ~finally:(fun () -> Telemetry.Span.exit span) @@ fun () ->
  Telemetry.Counter.incr tm_batch_solves;
  let solve_one (idx : int) (i : batch_item) : decision =
    wrap idx i (fun () ->
        place t ~size:i.bi_size ~owner:i.bi_owner ?existing:i.bi_existing
          ~prefs:i.bi_prefs ())
  in
  (* a packed member still reports a (zero-width) placement span and
     bumps the arena counters, so traces and counts read the same
     whether or not the run packed *)
  let note_packed (i : batch_item) (d : decision) : decision =
    let s =
      Telemetry.Span.enter "constraints.place"
        ~attrs:
          [ ("owner", Telemetry.S i.bi_owner); ("size", Telemetry.I i.bi_size) ]
    in
    Telemetry.Span.add_attr s "base" (Telemetry.I d.base);
    Telemetry.Span.add_attr s "packed" (Telemetry.B true);
    Telemetry.Span.exit s;
    Telemetry.Counter.incr tm_placements;
    d
  in
  let rec go idx = function
    | [] -> []
    | i :: _ as items when simple i ->
        let rec split acc = function
          | x :: rest when simple x -> split (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let run, rest = split [] items in
        let decisions =
          if List.length run >= 2 then
            match pack_run t run with
            | Some ds -> List.map2 note_packed run ds
            | None -> List.mapi (fun k x -> solve_one (idx + k) x) run
          else List.mapi (fun k x -> solve_one (idx + k) x) run
        in
        decisions @ go (idx + List.length run) rest
    | i :: rest ->
        (* force the solve before recursing: cons evaluates right to
           left, and solving the tail first would hand preference ties
           to the *last* queued request instead of the first, diverging
           from the serial path's arena state *)
        let d = solve_one idx i in
        d :: go (idx + 1) rest
  in
  go 0 items
