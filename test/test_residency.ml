(* Tests of the residency layer: cache <-> arena coherence, the
   invariant checker, deterministic fault injection, and regressions
   for the historical divergence bugs (each of which failed against the
   pre-residency server):

   - a stale cached candidate caused the server to link an *empty*
     module instead of re-evaluating the real graph;
   - the hit-path acceptability check looked at one byte of the text
     arena and ignored the data arena entirely;
   - the hit-path re-reservation swallowed [Error _] from
     [Placement.reserve], silently mapping over another owner's range;
   - evicting a [static:] entry released lib-arena intervals it never
     owned, and the eviction tie-break ignored its documented
     alternates-before-primaries order. *)

module Placement = Constraints.Placement

let build_libc s = Omos.Server.build s @@ Omos.Server.library "/lib/libc"

let text_size (b : Omos.Server.built) : int =
  match Linker.Image.text_segment b.Omos.Server.entry.Omos.Cache.image with
  | Some seg -> Bytes.length seg.Linker.Image.bytes
  | None -> 0

let has_symbol (b : Omos.Server.built) (name : string) : bool =
  Linker.Image.find_symbol b.Omos.Server.entry.Omos.Cache.image name <> None

let check_clean s =
  Alcotest.(check (list string))
    "invariants hold" []
    (List.map Omos.Residency.violation_message
       (Omos.Residency.check_invariants (Omos.Server.residency s)))

let owner_intervals arena owner =
  List.filter (fun (_, _, o) -> o = owner) (Placement.intervals arena)

(* -- evict-then-reinstantiate round trip -------------------------------- *)

let test_round_trip () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  Alcotest.(check string)
    "placed" "placed"
    (Omos.Cache.residency_to_string b1.Omos.Server.entry.Omos.Cache.residency);
  check_clean s;
  let n = Omos.Server.evict_to_budget s ~bytes:0 in
  Alcotest.(check bool) "something evicted" true (n >= 1);
  Alcotest.(check bool) "built is stale" true (Omos.Server.built_evicted b1);
  Alcotest.(check (list string))
    "text reservation released" []
    (List.map (fun _ -> "iv") (owner_intervals (Omos.Server.text_arena s) "/lib/libc"));
  Alcotest.(check (list string))
    "data reservation released" []
    (List.map (fun _ -> "iv") (owner_intervals (Omos.Server.data_arena s) "/lib/libc"));
  (* a stale built must be refused, not silently mapped *)
  let p =
    Simos.Kernel.create_process (Omos.Server.kernel s) ~args:[ "stale" ]
  in
  Alcotest.(check bool) "stale map refused" true
    (try
       Omos.Server.map_into s p b1;
       false
     with Omos.Server.Server_error _ -> true);
  (* re-instantiation rebuilds, back at the preferred addresses *)
  let b2 = build_libc s in
  Alcotest.(check int)
    "same text base after round trip" b1.Omos.Server.entry.Omos.Cache.text_base
    b2.Omos.Server.entry.Omos.Cache.text_base;
  Alcotest.(check bool) "image non-empty" true (text_size b2 > 0);
  check_clean s

(* -- regression: stale candidate must not shadow the real graph --------- *)

let test_stale_candidate_rebuilds_real_graph () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  Alcotest.(check bool) "cold build has strlen" true (has_symbol b1 "strlen");
  (* steal libc's text range: release it and squat its base *)
  let base = b1.Omos.Server.entry.Omos.Cache.text_base in
  Placement.release (Omos.Server.text_arena s) ~lo:base;
  (match Placement.reserve (Omos.Server.text_arena s) ~lo:base ~size:0x1000 "squatter" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat failed");
  (* pre-fix: the unacceptable candidate sent the server down a path
     that linked Jigsaw.Module_ops.v [] — an empty image *)
  let b2 = build_libc s in
  Alcotest.(check bool) "rebuild is not empty" true (text_size b2 > 0);
  Alcotest.(check bool) "rebuild has strlen" true (has_symbol b2 "strlen");
  Alcotest.(check bool)
    "rebuilt at an alternate base" true
    (b2.Omos.Server.entry.Omos.Cache.text_base <> base);
  check_clean s

(* -- regression: acceptability must cover the full text extent ---------- *)

let test_full_extent_acceptable_text () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  let base = b1.Omos.Server.entry.Omos.Cache.text_base in
  Alcotest.(check bool)
    "libc text spans multiple pages" true (text_size b1 > 0x1000);
  (* free libc's range but squat a page in its *tail*: the first byte
     of the old placement stays free, the full extent does not *)
  Placement.release (Omos.Server.text_arena s) ~lo:base;
  (match
     Placement.reserve (Omos.Server.text_arena s) ~lo:(base + 0x1000) ~size:0x1000
       "squatter"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat failed");
  (* pre-fix: the 1-byte check revived the entry and the swallowed
     reserve error left it mapped over the squatter *)
  let b2 = build_libc s in
  Alcotest.(check bool)
    "not revived over the squatter" true
    (b2.Omos.Server.entry.Omos.Cache.text_base <> base);
  let squatter_alive =
    owner_intervals (Omos.Server.text_arena s) "squatter" <> []
  in
  Alcotest.(check bool) "squatter interval intact" true squatter_alive;
  check_clean s

(* -- regression: acceptability must also cover the data arena ----------- *)

let test_full_extent_acceptable_data () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  let dbase = b1.Omos.Server.entry.Omos.Cache.data_base in
  (* steal the data placement outright; text left untouched *)
  Placement.release (Omos.Server.data_arena s) ~lo:dbase;
  (match
     Placement.reserve (Omos.Server.data_arena s) ~lo:dbase ~size:0x1000 "squatter"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat failed");
  (* pre-fix: the data arena was never consulted — the entry was
     revived at a data base now owned by someone else *)
  let b2 = build_libc s in
  Alcotest.(check bool)
    "not revived over the data squatter" true
    (b2.Omos.Server.entry.Omos.Cache.data_base <> dbase);
  check_clean s

(* -- regression: static eviction must not release foreign intervals ----- *)

let test_static_eviction_preserves_foreign_intervals () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  (* an unrelated interval that happens to start at the static bases
     (pre-fix, evicting a static: entry blindly released these) *)
  (match
     Placement.reserve (Omos.Server.text_arena s) ~lo:Omos.Server.client_text_base
       ~size:0x1000 "external"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "external text reserve failed");
  (match
     Placement.reserve (Omos.Server.data_arena s) ~lo:Omos.Server.client_data_base
       ~size:0x1000 "external"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "external data reserve failed");
  let obj = Minic.Driver.compile ~name:"app" "int main() { return 7; }" in
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"app" (Blueprint.Mgraph.Leaf obj)
  in
  Alcotest.(check string)
    "static entry" "static"
    (Omos.Cache.residency_to_string b.Omos.Server.entry.Omos.Cache.residency);
  let n = Omos.Server.evict_to_budget s ~bytes:0 in
  Alcotest.(check bool) "static entry evicted" true (n >= 1);
  Alcotest.(check int)
    "external text interval survives" 1
    (List.length (owner_intervals (Omos.Server.text_arena s) "external"));
  Alcotest.(check int)
    "external data interval survives" 1
    (List.length (owner_intervals (Omos.Server.data_arena s) "external"));
  check_clean s

(* -- regression: eviction tie-break (alternates before primaries) ------- *)

let dummy_image name =
  let a = Sof.Asm.create name in
  Sof.Asm.label a "e";
  Sof.Asm.instr a Svm.Isa.Halt;
  fst
    (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x2000 }
       [ Sof.Asm.finish a ])

let test_evict_tiebreak_alternates_first () =
  let c = Omos.Cache.create () in
  let primary =
    Omos.Cache.insert c ~key:"k" ~text_base:0x1000 ~data_base:0x2000
      (dummy_image "primary")
  in
  let alternate =
    Omos.Cache.insert c ~key:"k" ~text_base:0x9000 ~data_base:0xA000
      (dummy_image "alternate")
  in
  Alcotest.(check int) "equal hit counts" primary.Omos.Cache.hits
    alternate.Omos.Cache.hits;
  let total = (Omos.Cache.stats c).Omos.Cache.disk_bytes_total in
  (* force exactly one eviction: with equal hits, the documented order
     evicts the alternate placement, not the primary *)
  let victims = Omos.Cache.evict_to_budget c ~bytes:(total - 1) in
  Alcotest.(check (list int))
    "alternate evicted first" [ 0x9000 ]
    (List.map (fun (e : Omos.Cache.entry) -> e.Omos.Cache.text_base) victims);
  Alcotest.(check (list int))
    "primary survives" [ 0x1000 ]
    (List.map
       (fun (e : Omos.Cache.entry) -> e.Omos.Cache.text_base)
       (Omos.Cache.candidates c "k"))

(* -- fault injection: reserve failure on the hit path ------------------- *)

let faults_only ?(seed = 42) ?(place_conflict = 0.0) ?(evict_storm = 0.0)
    ?(reserve_fail = 0.0) () : Omos.Residency.faults =
  { Omos.Residency.seed; place_conflict; evict_storm; reserve_fail }

let test_fault_reserve_fail () =
  let w = Omos.World.create ~faults:(faults_only ~reserve_fail:1.0 ()) () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  let conflicts0 = List.length (Omos.Server.conflicts s) in
  let fails0 = Telemetry.Counter.get "residency.faults.reserve_fail" in
  (* warm request: the hit revives a candidate, the injected reserve
     failure turns it into a recorded conflict + alternate rebuild *)
  let b2 = build_libc s in
  Alcotest.(check bool)
    "alternate placement" true
    (b2.Omos.Server.entry.Omos.Cache.text_base
    <> b1.Omos.Server.entry.Omos.Cache.text_base);
  Alcotest.(check bool) "rebuild is real" true (has_symbol b2 "strlen");
  Alcotest.(check bool)
    "conflict recorded" true
    (List.length (Omos.Server.conflicts s) > conflicts0);
  Alcotest.(check bool)
    "fault counted" true
    (Telemetry.Counter.get "residency.faults.reserve_fail" > fails0);
  check_clean s

(* -- fault injection: eviction storms ----------------------------------- *)

let test_fault_evict_storm () =
  let w = Omos.World.create ~faults:(faults_only ~seed:7 ~evict_storm:1.0 ()) () in
  let s = w.Omos.World.server in
  let storms0 = Telemetry.Counter.get "residency.faults.evict_storm" in
  let r1 = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  Alcotest.(check bool) "cold build" false r1.Omos.Server.cache_hit;
  (* the storm fires before the second request, so it can never be a
     cache hit: the whole cache was just evicted *)
  let r2 = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  Alcotest.(check bool) "storm forces rebuild" false r2.Omos.Server.cache_hit;
  Alcotest.(check bool)
    "storms counted" true
    (Telemetry.Counter.get "residency.faults.evict_storm" >= storms0 + 2);
  check_clean s

(* -- fault injection: placement conflicts ------------------------------- *)

let test_fault_place_conflict () =
  let w = Omos.World.create ~faults:(faults_only ~seed:3 ~place_conflict:1.0 ()) () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  (* libc's constraint list wants T at 0x100000; the injected blocker
     forces an alternate and a recorded conflict *)
  Alcotest.(check bool)
    "preferred base denied" true
    (b1.Omos.Server.entry.Omos.Cache.text_base <> 0x100000);
  Alcotest.(check bool)
    "conflict recorded" true
    (Omos.Server.conflicts s <> []);
  Alcotest.(check bool)
    "fault counted" true
    (Telemetry.Counter.get "residency.faults.place_conflict" > 0);
  (* blockers never outlive the placement they perturb *)
  Alcotest.(check (list int))
    "no blocker left in text arena" []
    (List.map
       (fun (lo, _, _) -> lo)
       (owner_intervals (Omos.Server.text_arena s) "fault:conflict"));
  check_clean s

(* -- fault determinism --------------------------------------------------- *)

let test_fault_determinism () =
  let run () =
    let w =
      Omos.World.create ~faults:(faults_only ~seed:42 ~reserve_fail:0.6 ()) ()
    in
    let s = w.Omos.World.server in
    for _ = 1 to 5 do
      ignore (build_libc s)
    done;
    (List.length (Omos.Server.conflicts s), (Omos.Server.stats s).Omos.Server.links)
  in
  let c1, l1 = run () in
  let c2, l2 = run () in
  Alcotest.(check int) "same conflicts" c1 c2;
  Alcotest.(check int) "same links" l1 l2

(* -- the checker detects each seeded violation class --------------------- *)

let codes vs =
  List.sort_uniq compare (List.map (fun v -> v.Omos.Residency.v_code) vs)

let with_corrupted kind =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  ignore (build_libc s);
  check_clean s;
  Omos.Residency.inject (Omos.Server.residency s) kind;
  Omos.Residency.check_invariants (Omos.Server.residency s)

let test_detects_lost_reservation () =
  let vs = with_corrupted Omos.Residency.Lost_reservation in
  Alcotest.(check (list string)) "unreserved detected" [ "unreserved" ] (codes vs)

let test_detects_orphaned_interval () =
  let vs = with_corrupted Omos.Residency.Orphaned_interval in
  Alcotest.(check (list string)) "orphans detected" [ "orphan" ] (codes vs)

let test_detects_overlap () =
  let vs = with_corrupted Omos.Residency.Overlapping_entries in
  Alcotest.(check (list string)) "overlap detected" [ "overlap" ] (codes vs);
  (* and the exception variant raises *)
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  ignore (build_libc s);
  Omos.Residency.inject (Omos.Server.residency s) Omos.Residency.Overlapping_entries;
  Alcotest.(check bool) "check_exn raises" true
    (try
       Omos.Residency.check_exn (Omos.Server.residency s);
       false
     with Omos.Residency.Violation _ -> true)

(* -- the checker against its quadratic reference ---------------------------- *)

(* The checker as first written: pairwise overlap test, an interval
   list materialized per ownership query, a linear scan per orphan. *)
let reference_check (t : Omos.Residency.t) (cache : Omos.Cache.t) ~text_arena
    ~data_arena : string list =
  let module R = Omos.Residency in
  let out = ref [] in
  let add code fmt =
    Format.kasprintf (fun m -> out := Printf.sprintf "[%s] %s" code m :: !out) fmt
  in
  let owned_at arena ~owner ~lo ~size =
    List.exists
      (fun (ilo, ihi, o) -> o = owner && ilo = lo && ihi >= lo + size)
      (Placement.intervals arena)
  in
  let overlap (lo1, sz1) (lo2, sz2) = lo1 < lo2 + sz2 && lo2 < lo1 + sz1 in
  let placed =
    List.filter
      (fun (e : Omos.Cache.entry) -> e.Omos.Cache.residency = Omos.Cache.Placed)
      (Omos.Cache.to_list cache)
  in
  List.iter
    (fun e ->
      let owner = R.owner_of e in
      let chk arena what (lo, sz) =
        if not (owned_at arena ~owner ~lo ~size:sz) then
          add "unreserved"
            "placed entry %s: %s extent [0x%x,0x%x) not reserved under its owner"
            owner what lo (lo + sz)
      in
      chk text_arena "text" (R.text_extent e);
      chk data_arena "data" (R.data_extent e))
    placed;
  let rec pairwise = function
    | [] -> ()
    | (e : Omos.Cache.entry) :: rest ->
        List.iter
          (fun (e' : Omos.Cache.entry) ->
            if
              overlap (R.text_extent e) (R.text_extent e')
              || overlap (R.data_extent e) (R.data_extent e')
            then
              add "overlap" "placed entries %s@0x%x and %s@0x%x overlap"
                (R.owner_of e) e.Omos.Cache.text_base (R.owner_of e')
                e'.Omos.Cache.text_base)
          rest;
        pairwise rest
  in
  pairwise placed;
  let orphans arena what base_of =
    List.iter
      (fun (ilo, ihi, o) ->
        if
          R.managed t o
          && not
               (List.exists
                  (fun e -> R.owner_of e = o && fst (base_of e) = ilo)
                  placed)
        then
          add "orphan" "%s interval [0x%x,0x%x) of %s has no live placed entry"
            what ilo ihi o)
      (Placement.intervals arena)
  in
  orphans text_arena "text" R.text_extent;
  orphans data_arena "data" R.data_extent;
  List.rev !out

(* an image of [pages] text pages less 8 bytes (an instruction is 8
   bytes) and [dwords] data words, named after its owner *)
let sized_image owner pages dwords =
  let a = Sof.Asm.create owner in
  Sof.Asm.label a "e";
  for _ = 1 to (pages * 0x1000 / 8) - 1 do
    Sof.Asm.instr a Svm.Isa.Halt
  done;
  Sof.Asm.data_label a "d";
  for k = 1 to dwords do
    Sof.Asm.data_word a (Int32.of_int k)
  done;
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x10000 }
      [ Sof.Asm.finish a ]
  in
  Linker.Image.with_name img owner

(* One generated entry: owner, text pages, data words, text and data
   base, residency (0-1 placed, 2 evicted, 3 static), and how much of
   its extents it reserves (0 all, 1 short, 2 nothing). Text bases sit
   on a page grid pulled down by 0, 7, 8 or 9 bytes, and a text extent
   is a whole number of pages less 8 bytes, so neighbours are apart,
   adjacent or one byte into each other; data extents are multiples of
   256 bytes on a 256-byte grid pulled down by up to 3 words. Stray
   reservations, under managed and unmanaged owners, make orphans. *)
let gen_scenario =
  QCheck.Gen.(
    let base =
      map2
        (fun slot pull -> 0x100000 + (slot * 0x1000) - List.nth [ 0; 7; 8; 9 ] pull)
        (int_range 1 12) (int_bound 3)
    and dbase =
      map2 (fun slot pull -> 0x400000 + (slot * 0x100) - (4 * pull)) (int_range 1 24)
        (int_bound 3)
    in
    pair
      (list_size (int_range 0 14)
         (tup7 (int_bound 4) (int_range 1 3)
            (map (fun k -> 64 * k) (int_bound 4))
            base dbase (int_bound 3) (int_bound 2)))
      (list_size (int_range 0 4) (tup3 (int_bound 5) (int_bound 12) bool)))

type scenario = {
  t : Omos.Residency.t;
  cache : Omos.Cache.t;
  text_arena : Placement.t;
  data_arena : Placement.t;
}

let owner_name o = Printf.sprintf "/lib/o%d" o

(* Reserve an entry's extents under its owner: all of them, one byte
   short, or nothing. *)
let take_extents s (e : Omos.Cache.entry) reserve =
  let owner = Omos.Residency.owner_of e in
  let take arena (lo, sz) =
    let sz = if reserve = 1 then max 1 (sz - 1) else sz in
    if reserve < 2 then ignore (Placement.reserve arena ~lo ~size:sz owner)
  in
  take s.text_arena (Omos.Residency.text_extent e);
  take s.data_arena (Omos.Residency.data_extent e)

let build_scenario (entries, strays) : scenario =
  let cache = Omos.Cache.create () in
  let text_arena = Placement.create ~region_lo:0x100000 ~region_hi:0x200000 ()
  and data_arena = Placement.create ~region_lo:0x400000 ~region_hi:0x500000 () in
  let t =
    Omos.Residency.create ~cache ~text_arena ~data_arena ~clock:(fun () -> 0.0) ()
  in
  let s = { t; cache; text_arena; data_arena } in
  List.iteri
    (fun i (o, pages, dwords, text_base, data_base, state, reserve) ->
      let e =
        Omos.Cache.insert cache ~key:(Printf.sprintf "k%d" i) ~text_base
          ~data_base (sized_image (owner_name o) pages dwords)
      in
      (match state with
      | 0 | 1 -> Omos.Residency.note_placed t e
      | 2 ->
          Omos.Residency.note_placed t e;
          Omos.Cache.set_residency cache e Omos.Cache.Evicted
      | _ -> Omos.Residency.note_static t e);
      take_extents s e reserve)
    entries;
  List.iter
    (fun (o, slot, text) ->
      let owner = owner_name o in
      if text then
        ignore
          (Placement.reserve text_arena ~lo:(0x100000 + (slot * 0x1000))
             ~size:0x800 owner)
      else
        ignore
          (Placement.reserve data_arena ~lo:(0x400000 + (slot * 0x200))
             ~size:0x100 owner))
    strays;
  s

let prop_checker_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"check_invariants = quadratic reference (overlap/unreserved/orphan)"
    (QCheck.make gen_scenario)
    (fun scenario ->
      let s = build_scenario scenario in
      let got =
        List.map Omos.Residency.violation_message
          (Omos.Residency.check_invariants s.t)
      in
      let want =
        reference_check s.t s.cache ~text_arena:s.text_arena
          ~data_arena:s.data_arena
      in
      got = want)

(* -- the self-check against the full check, under mutation ------------------ *)

(* One step through a public mutator. Entry operands index every entry
   the scenario ever created (evicted and invalidated ones included);
   owners 5 to 7 own no generated entry, so their intervals stay
   unmanaged until a [Reacquire] or an inserted entry adopts them. *)
type mutation =
  | Note_placed of int
  | Note_static of int
  | Reacquire of int * int option  (** entry, a foreign owner *)
  | Demote of int
  | Evict of bool * int
      (** through the residency layer?, budget: 0 nothing kept, 1 half,
          2 everything *)
  | Reserve of bool * int * int * int
      (** text arena?, site (grid slot, or 20+ an entry's extent), size, owner *)
  | Release of bool * int  (** text arena?, interval index *)
  | Pack of bool * int * int * int
      (** text arena?, two sizes in pages, owner: a packable batch *)
  | Insert of int * int * int * int * int * int * int
      (** owner, pages, data words, text base, data base,
          residency (0 placed, 1 evicted, 2 static), reservation *)
  | Invalidate of int
  | Clear
  | Set_residency of int * int
  | Inject of int

let mutation_to_string = function
  | Note_placed i -> Printf.sprintf "note_placed %d" i
  | Note_static i -> Printf.sprintf "note_static %d" i
  | Reacquire (i, o) ->
      Printf.sprintf "reacquire %d %s" i
        (match o with Some o -> owner_name o | None -> "own")
  | Demote i -> Printf.sprintf "demote %d" i
  | Evict (r, b) -> Printf.sprintf "evict %b %d" r b
  | Reserve (tx, site, sz, o) -> Printf.sprintf "reserve %b %d %d o%d" tx site sz o
  | Release (tx, k) -> Printf.sprintf "release %b %d" tx k
  | Pack (tx, a, b, o) -> Printf.sprintf "pack %b %d %d o%d" tx a b o
  | Insert (o, p, d, tb, db, r, res) ->
      Printf.sprintf "insert o%d %d %d 0x%x 0x%x %d %d" o p d tb db r res
  | Invalidate i -> Printf.sprintf "invalidate %d" i
  | Clear -> "clear"
  | Set_residency (i, r) -> Printf.sprintf "set_residency %d %d" i r
  | Inject k -> Printf.sprintf "inject %d" k

let gen_mutation =
  QCheck.Gen.(
    let idx = int_bound 20 and owner = int_bound 7 in
    frequency
      [
        (3, map (fun i -> Note_placed i) idx);
        (1, map (fun i -> Note_static i) idx);
        (3, map2 (fun i o -> Reacquire (i, o)) idx (opt owner));
        (2, map (fun i -> Demote i) idx);
        (2, map2 (fun r b -> Evict (r, b)) bool (int_bound 2));
        (4, map (fun (tx, site, sz, o) -> Reserve (tx, site, sz, o))
              (quad bool (int_bound 34) (int_bound 2) owner));
        (3, map2 (fun tx k -> Release (tx, k)) bool (int_bound 20));
        (2, map (fun (tx, a, b, o) -> Pack (tx, a, b, o))
              (quad bool (int_range 1 3) (int_range 1 3) owner));
        (2, map
              (fun ((o, p, d, tb), (db, r, res)) -> Insert (o, p, d, tb, db, r, res))
              (pair
                 (quad owner (int_range 1 3) (map (fun k -> 64 * k) (int_bound 4))
                    (map (fun slot -> 0x100000 + (slot * 0x1000)) (int_range 1 12)))
                 (triple
                    (map (fun slot -> 0x400000 + (slot * 0x100)) (int_range 1 24))
                    (int_bound 2) (int_bound 2))));
        (1, map (fun i -> Invalidate i) idx);
        (1, return Clear);
        (2, map2 (fun i r -> Set_residency (i, r)) idx (int_bound 2));
        (1, map (fun k -> Inject k) (int_bound 2));
      ])

let residency_of = function
  | 0 -> Omos.Cache.Placed
  | 1 -> Omos.Cache.Evicted
  | _ -> Omos.Cache.Static

(* Apply one mutation. Mutators that self-check (eviction) or refuse
   (injection with nothing placed, a batch that does not fit) may
   raise; the state they leave is what the next comparison sees. *)
let apply s (entries : Omos.Cache.entry list ref) (m : mutation) : unit =
  let entry i =
    match !entries with [] -> None | es -> Some (List.nth es (i mod List.length es))
  in
  let with_entry i f = Option.iter f (entry i) in
  let arena tx = if tx then s.text_arena else s.data_arena in
  try
    match m with
    | Note_placed i -> with_entry i (Omos.Residency.note_placed s.t)
    | Note_static i -> with_entry i (Omos.Residency.note_static s.t)
    | Reacquire (i, o) ->
        with_entry i (fun e ->
            let owner =
              match o with Some o -> owner_name o | None -> Omos.Residency.owner_of e
            in
            ignore (Omos.Residency.reacquire s.t ~owner e))
    | Demote i -> with_entry i (fun e -> ignore (Omos.Residency.demote_if_lost s.t e))
    | Evict (r, b) ->
        let total = (Omos.Cache.stats s.cache).Omos.Cache.disk_bytes_total in
        let bytes = total * b / 2 in
        if r then ignore (Omos.Residency.evict_to_budget s.t ~bytes)
        else ignore (Omos.Cache.evict_to_budget s.cache ~bytes)
    | Reserve (tx, site, sz, o) ->
        let lo, size =
          if site < 20 then
            if tx then (0x100000 + (site * 0x1000), 0x800 lsl sz)
            else (0x400000 + (site * 0x100), 0x100 lsl sz)
          else
            match entry (site - 20) with
            | Some e ->
                if tx then Omos.Residency.text_extent e
                else Omos.Residency.data_extent e
            | None -> (0x100000, 0x1000)
        in
        ignore (Placement.reserve (arena tx) ~lo ~size (owner_name o))
    | Release (tx, k) -> (
        match Placement.intervals (arena tx) with
        | [] -> ()
        | ivs ->
            let lo, _, _ = List.nth ivs (k mod List.length ivs) in
            Placement.release (arena tx) ~lo)
    | Pack (tx, a, b, o) ->
        let item n =
          {
            Placement.bi_size = n * Placement.align (arena tx);
            bi_owner = owner_name o;
            bi_existing = None;
            bi_prefs = [];
          }
        in
        ignore (Placement.place_batch (arena tx) [ item a; item b ])
    | Insert (o, pages, dwords, text_base, data_base, r, reserve) ->
        let e =
          Omos.Cache.insert s.cache
            ~key:(Printf.sprintf "m%d" (List.length !entries))
            ~text_base ~data_base ~residency:(residency_of r)
            (sized_image (owner_name o) pages dwords)
        in
        entries := !entries @ [ e ];
        take_extents s e reserve
    | Invalidate i -> with_entry i (fun e -> Omos.Cache.invalidate s.cache e.Omos.Cache.key)
    | Clear -> Omos.Cache.clear s.cache
    | Set_residency (i, r) ->
        with_entry i (fun e -> Omos.Cache.set_residency s.cache e (residency_of r))
    | Inject k ->
        Omos.Residency.inject s.t
          (match k with
          | 0 -> Omos.Residency.Lost_reservation
          | 1 -> Omos.Residency.Orphaned_interval
          | _ -> Omos.Residency.Overlapping_entries)
  with
  | Omos.Residency.Violation _ | Invalid_argument _ | Placement.No_space _ -> ()

(* After every step, the self-check (which skips the scan when nothing
   it reads changed since its last clean one) raises exactly when the
   full check reports a violation. A skipped scan can only go wrong in
   a clean state, which generated scenarios often are not, so half the
   runs start from an empty cache and arenas. *)
let prop_self_check_matches_full =
  QCheck.Test.make ~count:1000
    ~name:"self_check raises iff check_invariants reports, under mutation"
    (QCheck.make
       ~print:(fun (_, ms) -> String.concat "; " (List.map mutation_to_string ms))
       QCheck.Gen.(
         pair
           (oneof [ gen_scenario; return ([], []) ])
           (list_size (int_range 1 40) gen_mutation)))
    (fun (scenario, mutations) ->
      let s = build_scenario scenario in
      let entries = ref (Omos.Cache.to_list s.cache) in
      let agrees () =
        let raised =
          try
            Omos.Residency.self_check s.t;
            false
          with Omos.Residency.Violation _ -> true
        in
        raised = (Omos.Residency.check_invariants s.t <> [])
      in
      agrees ()
      && List.for_all
           (fun m ->
             apply s entries m;
             agrees ())
           mutations)

(* -- the self-check runs on the request and eviction paths --------------- *)

let test_self_check_coverage () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let checks () = Telemetry.Counter.get "residency.invariant_checks"
  and scans () = Telemetry.Counter.get "residency.invariant_scans" in
  let checks0 = checks () in
  ignore (build_libc s);
  Alcotest.(check bool) "instantiate self-checks" true (checks () > checks0);
  (* a warm hit changes nothing the check reads: each is answered, none
     rescans *)
  let checks1 = checks () and scans1 = scans () in
  for _ = 1 to 100 do
    ignore (build_libc s)
  done;
  Alcotest.(check int) "every warm hit checked" (checks1 + 100) (checks ());
  Alcotest.(check int) "no warm hit rescans" scans1 (scans ());
  (* each state-changing step rescans exactly once *)
  ignore (Omos.Server.evict_to_budget s ~bytes:0);
  Alcotest.(check int) "eviction rescans once" (scans1 + 1) (scans ());
  ignore (build_libc s);
  Alcotest.(check int) "rebuild rescans once" (scans1 + 2) (scans ());
  ignore (build_libc s);
  Alcotest.(check int) "the next hit does not" (scans1 + 2) (scans ())

(* -- schemes survive eviction between invocations ------------------------ *)

let test_scheme_survives_eviction () =
  let w = Omos.World.create () in
  let rt = w.Omos.World.rt in
  let prog =
    Omos.Schemes.self_contained_program rt ~name:"ls"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs ()
  in
  let code1, out1 = Omos.Schemes.invoke rt prog ~args:Omos.World.ls_single_args in
  (* everything the program was built from disappears from the cache *)
  ignore (Omos.Server.evict_to_budget w.Omos.World.server ~bytes:0);
  let code2, out2 = Omos.Schemes.invoke rt prog ~args:Omos.World.ls_single_args in
  Alcotest.(check int) "exit code unchanged" code1 code2;
  Alcotest.(check string) "output unchanged" out1 out2;
  check_clean w.Omos.World.server

let () =
  Alcotest.run "residency"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "evict-then-reinstantiate round trip" `Quick
            test_round_trip;
          Alcotest.test_case "self-check on request and evict paths" `Quick
            test_self_check_coverage;
          Alcotest.test_case "schemes survive eviction" `Quick
            test_scheme_survives_eviction;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "stale candidate rebuilds real graph" `Quick
            test_stale_candidate_rebuilds_real_graph;
          Alcotest.test_case "full text extent checked" `Quick
            test_full_extent_acceptable_text;
          Alcotest.test_case "data arena checked" `Quick
            test_full_extent_acceptable_data;
          Alcotest.test_case "static eviction leaves foreign intervals" `Quick
            test_static_eviction_preserves_foreign_intervals;
          Alcotest.test_case "tie-break evicts alternates first" `Quick
            test_evict_tiebreak_alternates_first;
        ] );
      ( "faults",
        [
          Alcotest.test_case "reserve failure -> conflict + rebuild" `Quick
            test_fault_reserve_fail;
          Alcotest.test_case "eviction storm" `Quick test_fault_evict_storm;
          Alcotest.test_case "placement conflict" `Quick test_fault_place_conflict;
          Alcotest.test_case "deterministic under a seed" `Quick
            test_fault_determinism;
        ] );
      ( "detection",
        [
          Alcotest.test_case "lost reservation" `Quick test_detects_lost_reservation;
          Alcotest.test_case "orphaned interval" `Quick
            test_detects_orphaned_interval;
          Alcotest.test_case "overlapping entries" `Quick test_detects_overlap;
          QCheck_alcotest.to_alcotest prop_checker_matches_reference;
          QCheck_alcotest.to_alcotest prop_self_check_matches_full;
        ] );
    ]
