(** Differential fuzz oracles over generated cases (see fuzzer.mli). *)

module Fuzz = Workloads.Fuzz

type failure = {
  fz_oracle : string;
  fz_detail : string;
  fz_case : Fuzz.case;
}

type verdict = Pass of { clean_libs : int; events : int } | Fail of failure

let install (c : Fuzz.case) (w : World.t) : unit =
  let s = w.World.server in
  List.iter
    (fun m ->
      let path = Fuzz.mod_path m in
      Server.add_fragment s path
        (Minic.Driver.compile ~name:path (Fuzz.minic_source m)))
    c.Fuzz.f_mods;
  List.iter
    (fun l -> Server.register_meta_source s (Fuzz.lib_path l) (Fuzz.meta_source l))
    c.Fuzz.f_libs

(* -- oracle 1: lint vs evaluator ------------------------------------------- *)

(* Returns the libraries the analyzer proved instantiable (Verified),
   or the first disagreement with the evaluator. *)
let lint_differential (s : Server.t) (c : Fuzz.case) :
    (string list, string) result =
  let resolve = Server.resolve_graph s in
  let rec go clean = function
    | [] -> Ok (List.rev clean)
    | l :: rest -> (
        let path = Fuzz.lib_path l in
        let meta = Server.find_meta s path in
        let graph = Blueprint.Meta.effective_graph meta ~spec:None in
        let report, outcome =
          Analysis.Lint.verify_against ~eval:(Server.eval s) ~resolve graph
        in
        match outcome with
        | Analysis.Lint.Verified _ -> go (path :: clean) rest
        | Analysis.Lint.Skipped _ when report.Analysis.Lint.eval_fails -> (
            (* strengthened differential: the analyzer predicts the
               evaluator refuses this graph — hold it to that *)
            match Server.eval s graph with
            | _ ->
                Error
                  (Printf.sprintf
                     "%s: analyzer predicts evaluation failure but evaluation \
                      succeeded"
                     path)
            | exception _ -> go clean rest)
        | Analysis.Lint.Skipped _ ->
            (* approximate graphs make no exact claim *)
            go clean rest
        | Analysis.Lint.Mismatch { field; predicted; actual } ->
            Error
              (Printf.sprintf "%s: %s mismatch: predicted [%s] actual [%s]" path
                 field
                 (String.concat " " predicted)
                 (String.concat " " actual))
        | Analysis.Lint.Eval_raised msg ->
            Error
              (Printf.sprintf
                 "%s: evaluation raised although the analyzer predicted \
                  success: %s"
                 path msg))
  in
  go [] c.Fuzz.f_libs

(* -- oracle 2: residency invariants ---------------------------------------- *)

let check_residency (s : Server.t) ~(ctx : string) : (unit, string) result =
  match Residency.check_invariants (Server.residency s) with
  | [] -> Ok ()
  | vs ->
      Error
        (Printf.sprintf "after %s: %s" ctx
           (String.concat "; " (List.map Residency.violation_message vs)))

let residency_probe (s : Server.t) (c : Fuzz.case) (clean : string list) :
    (unit, string) result =
  let ( let* ) = Result.bind in
  let budget = max c.Fuzz.f_wl.Fuzz.w_evict 4096 in
  let rec instantiate_all = function
    | [] -> Ok ()
    | path :: rest ->
        let* () =
          match Server.instantiate s (Server.library path) with
          | (_ : Server.response) -> check_residency s ~ctx:("instantiate " ^ path)
          | exception Residency.Violation m ->
              Error (Printf.sprintf "instantiate %s raised: %s" path m)
        in
        instantiate_all rest
  in
  let* () = instantiate_all clean in
  let* () =
    match Server.evict_to_budget s ~bytes:budget with
    | (_ : int) -> check_residency s ~ctx:(Printf.sprintf "evict budget=%d" budget)
    | exception Residency.Violation m -> Error ("evict raised: " ^ m)
  in
  (* churn: everything clean must come back after the eviction pass *)
  instantiate_all clean

(* -- oracle 3: pipeline equivalence ---------------------------------------- *)

let event_sig (e : Workload.event) : string =
  Printf.sprintf "%d %d %s %s %s" e.Workload.w_req e.Workload.w_client
    e.Workload.w_op e.Workload.w_target
    (match e.Workload.w_hit with
    | None -> "-"
    | Some true -> "hit"
    | Some false -> "miss")

let spec_text (c : Fuzz.case) (clean : string list) : string =
  Fuzz.spec_body c.Fuzz.f_wl
  ^ String.concat "" (List.map (fun p -> "meta " ^ p ^ "\n") clean)

(* Run the scenario, returning the events plus the final arena interval
   maps of the world it ran in. *)
let run_spec (c : Fuzz.case) (spec : Workload.spec) :
    Workload.event list * (int * int * string) list * (int * int * string) list =
  let captured = ref None in
  let setup w =
    captured := Some w.World.server;
    install c w
  in
  let events = Workload.run ~setup spec in
  match !captured with
  | None -> assert false
  | Some s ->
      ( events,
        Constraints.Placement.intervals (Server.text_arena s),
        Constraints.Placement.intervals (Server.data_arena s) )

let first_diff (xs : string list) (ys : string list) : string =
  let rec go i = function
    | [], [] -> "streams equal (lengths differ?)"
    | x :: _, [] -> Printf.sprintf "event %d only in first: %s" i x
    | [], y :: _ -> Printf.sprintf "event %d only in second: %s" i y
    | x :: xs, y :: ys ->
        if x = y then go (i + 1) (xs, ys)
        else Printf.sprintf "event %d: %S vs %S" i x y
  in
  go 0 (xs, ys)

let pipeline_equivalence (c : Fuzz.case) (clean : string list) :
    (int, string) result =
  let spec = Workload.parse (spec_text c clean) in
  match c.Fuzz.f_wl.Fuzz.w_fault with
  | Some _ ->
      (* fault injection consumes its seeded stream as server-side
         operations happen, so serial and batched runs draw different
         streams by design — the guarantee under faults is replay:
         identical runs are byte-identical, costs included *)
      let a, _, _ = run_spec c spec in
      let b, _, _ = run_spec c spec in
      if a = b then Ok (List.length a)
      else
        Error
          (Printf.sprintf "fault replay diverged: %s"
             (first_diff (List.map event_sig a) (List.map event_sig b)))
  | None ->
      let batched = { spec with Workload.concurrency = max spec.Workload.concurrency 2 } in
      let serial = { spec with Workload.concurrency = 1 } in
      let ea, ta, da = run_spec c batched in
      let eb, tb, db = run_spec c serial in
      let sa = List.map event_sig ea and sb = List.map event_sig eb in
      let show_intervals ivs =
        String.concat ", "
          (List.map (fun (lo, hi, who) -> Printf.sprintf "%#x-%#x %s" lo hi who) ivs)
      in
      if sa <> sb then
        Error (Printf.sprintf "batched vs serial events: %s" (first_diff sa sb))
      else if ta <> tb then
        Error
          (Printf.sprintf
             "batched vs serial: text arena intervals differ: [%s] vs [%s]"
             (show_intervals ta) (show_intervals tb))
      else if da <> db then
        Error
          (Printf.sprintf
             "batched vs serial: data arena intervals differ: [%s] vs [%s]"
             (show_intervals da) (show_intervals db))
      else Ok (List.length ea)

(* -- oracle 4: incremental vs from-scratch relink --------------------------- *)

(* Link-level facts of one build — everything that must not depend on
   whether evaluation served subtrees from the memo table. Eval-time
   journal events are excluded by construction (a reused subtree
   replaces its per-operator events with one [Reused]); the link stage
   always runs for a respun root, so its Bind/Reloc events, the
   placement, and the image bytes must be identical either way. *)
let build_sig (b : Server.built) : string =
  let e = b.Server.entry in
  let link_events =
    match e.Cache.provenance with
    | None -> []
    | Some p ->
        List.filter_map
          (fun ev ->
            match ev with
            | Telemetry.Provenance.Bind _ | Telemetry.Provenance.Reloc _ ->
                Some (Telemetry.Provenance.event_to_string ev)
            | _ -> None)
          p.Telemetry.Provenance.p_events
  in
  Printf.sprintf "text=%#x data=%#x image=%s binds=[%s]" e.Cache.text_base
    e.Cache.data_base
    (Digest.to_hex (Digest.bytes (Linker.Image.encode e.Cache.image)))
    (String.concat "; " link_events)

(* One node of an impact tree as the oracle compares it: path, digest,
   stability, modeledness and summary, in pre-order. *)
let impact_rows (t : Analysis.Impact.tree) : string list =
  let out = ref [] in
  Analysis.Impact.iter_infos
    (fun i ->
      let s = i.Analysis.Impact.i_summary in
      out :=
        String.concat " "
          [
            i.Analysis.Impact.i_path;
            i.Analysis.Impact.i_digest;
            (if i.Analysis.Impact.i_stable then "stable" else "unstable");
            (if i.Analysis.Impact.i_modeled then "modeled" else "approx");
            s.Analysis.Impact.s_op;
            String.concat ","
              (List.map (fun (n, b) -> n ^ "=" ^ b) s.Analysis.Impact.s_exports);
            String.concat "," s.Analysis.Impact.s_undefined;
            String.concat "," s.Analysis.Impact.s_relocs;
            String.concat "," s.Analysis.Impact.s_frozen;
            String.concat "," s.Analysis.Impact.s_hidden;
            String.concat "," s.Analysis.Impact.s_prefs;
            string_of_int s.Analysis.Impact.s_gensym;
          ]
        :: !out)
    t;
  List.rev !out

let registration_matches_scratch (s : Server.t) (path : string) :
    (unit, string) result =
  match Server.impact_tree s path with
  | None -> Error (path ^ ": no registration-time impact tree")
  | Some reg ->
      let scratch =
        Analysis.Impact.analyze ~resolve:(Server.resolve_graph s)
          (Blueprint.Meta.effective_graph (Server.find_meta s path) ~spec:None)
      in
      let a = impact_rows reg and b = impact_rows scratch in
      if a = b then Ok ()
      else
        Error
          (Printf.sprintf "%s: registration-time impact tree vs fresh analysis: %s"
             path (first_diff a b))

(* A lint report as the oracle compares it: every field, findings in
   order. *)
let lint_rows (r : Analysis.Lint.report) : string list =
  let module L = Analysis.Lint in
  let module Mg = Blueprint.Mgraph in
  let pref (c : Mg.constraint_pref) =
    Format.asprintf "%s/%d:%a"
      (match c.Mg.seg with Mg.Seg_text -> "T" | Mg.Seg_data -> "D")
      c.Mg.priority Constraints.Placement.pp_pref c.Mg.pref
  in
  List.map
    (fun (f : L.finding) ->
      L.severity_to_string f.L.severity ^ " " ^ L.finding_to_string f)
    r.L.findings
  @ [
      "exports " ^ String.concat "," r.L.exports;
      "undefined " ^ String.concat "," r.L.undefined;
      "frozen " ^ String.concat "," r.L.frozen;
      "hidden " ^ String.concat "," r.L.hidden;
      "prefs " ^ String.concat "," (List.map pref r.L.prefs);
      Printf.sprintf "approximate %b eval_fails %b" r.L.approximate r.L.eval_fails;
    ]

let lint_matches_scratch (s : Server.t) (path : string) : (unit, string) result =
  match Server.lint_report s path with
  | None -> Error (path ^ ": no registration-time lint report")
  | Some reg ->
      let scratch =
        Analysis.Lint.analyze ~resolve:(Server.resolve_graph s) ~gensym_base:0
          (Blueprint.Meta.effective_graph (Server.find_meta s path) ~spec:None)
      in
      let a = lint_rows reg and b = lint_rows scratch in
      if a = b then Ok ()
      else
        Error
          (Printf.sprintf "%s: registration-time lint vs fresh lint: %s" path
             (first_diff a b))

(* One full history: install the case, build every library, install the
   edited blueprints over the same bindings, rebuild every library.
   [gensym0] aligns the global mangling counter so both runs mint
   comparable freeze/hide aliases. The registration-time impact tree and
   lint report of every re-registered library must equal a fresh
   analysis. *)
let incremental_run (c : Fuzz.case) (c' : Fuzz.case) ~(reuse : bool)
    ~(gensym0 : int) :
    (string list * (int * int * string) list * (int * int * string) list, string)
    result =
  Jigsaw.Module_ops.gensym_set gensym0;
  let w = World.create () in
  let s = w.World.server in
  Server.set_subtree_reuse s reuse;
  install c w;
  let build path =
    match Server.build s (Server.library path) with
    | b -> Printf.sprintf "%s: %s" path (build_sig b)
    | exception e -> Printf.sprintf "%s: raised %s" path (Printexc.to_string e)
  in
  let pre = List.map (fun l -> build (Fuzz.lib_path l)) c.Fuzz.f_libs in
  (* a report is not refreshed when a meta it reaches changes later, so
     each is compared right after its own registration *)
  let lints =
    List.fold_left
      (fun acc l ->
        Server.register_meta_source s (Fuzz.lib_path l) (Fuzz.meta_source l);
        Result.bind acc (fun () -> lint_matches_scratch s (Fuzz.lib_path l)))
      (Ok ()) c'.Fuzz.f_libs
  in
  let trees =
    List.fold_left
      (fun acc l ->
        Result.bind acc (fun () -> registration_matches_scratch s (Fuzz.lib_path l)))
      lints c'.Fuzz.f_libs
  in
  let post = List.map (fun l -> build (Fuzz.lib_path l)) c'.Fuzz.f_libs in
  Result.map
    (fun () ->
      ( pre @ post,
        Constraints.Placement.intervals (Server.text_arena s),
        Constraints.Placement.intervals (Server.data_arena s) ))
    trees

let incremental_equivalence (c : Fuzz.case) : (int, string) result =
  match Fuzz.mutate ~seed:c.Fuzz.f_seed c with
  | None -> Ok 0
  | Some (c', edit) ->
      let gensym0 = Jigsaw.Module_ops.gensym_current () in
      let prov0 = Telemetry.Provenance.is_enabled () in
      Telemetry.Provenance.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Telemetry.Provenance.set_enabled prov0)
        (fun () ->
          let ( let* ) r f =
            match r with
            | Ok v -> f v
            | Error e -> Error (Printf.sprintf "edit %S: %s" edit e)
          in
          let* a, ta, da = incremental_run c c' ~reuse:true ~gensym0 in
          let* b, tb, db = incremental_run c c' ~reuse:false ~gensym0 in
          let show_intervals ivs =
            String.concat ", "
              (List.map
                 (fun (lo, hi, who) -> Printf.sprintf "%#x-%#x %s" lo hi who)
                 ivs)
          in
          if a <> b then
            Error
              (Printf.sprintf "edit %S: incremental vs from-scratch: %s" edit
                 (first_diff a b))
          else if ta <> tb then
            Error
              (Printf.sprintf
                 "edit %S: text arena intervals differ: [%s] vs [%s]" edit
                 (show_intervals ta) (show_intervals tb))
          else if da <> db then
            Error
              (Printf.sprintf
                 "edit %S: data arena intervals differ: [%s] vs [%s]" edit
                 (show_intervals da) (show_intervals db))
          else Ok (List.length a))

(* -- putting it together ---------------------------------------------------- *)

let run_case_exn (c : Fuzz.case) : verdict =
  let fail oracle detail = Fail { fz_oracle = oracle; fz_detail = detail; fz_case = c } in
  let w = World.create () in
  install c w;
  let s = w.World.server in
  match lint_differential s c with
  | Error detail -> fail "lint-differential" detail
  | Ok clean -> (
      match residency_probe s c clean with
      | Error detail -> fail "residency" detail
      | Ok () -> (
          match pipeline_equivalence c clean with
          | Error detail -> fail "pipeline-equivalence" detail
          | Ok events -> (
              match incremental_equivalence c with
              | Error detail -> fail "incremental-relink" detail
              | Ok _ -> Pass { clean_libs = List.length clean; events })))

let run_case (c : Fuzz.case) : verdict =
  match run_case_exn c with
  | v -> v
  | exception Residency.Violation m ->
      Fail { fz_oracle = "residency"; fz_detail = m; fz_case = c }
  | exception e ->
      Fail { fz_oracle = "crash"; fz_detail = Printexc.to_string e; fz_case = c }

let reduce ?(budget = 300) (f : failure) : Fuzz.case * int =
  let runs = ref 0 in
  let still_fails c =
    if !runs >= budget then false
    else begin
      incr runs;
      match run_case c with
      | Fail f' -> f'.fz_oracle = f.fz_oracle
      | Pass _ -> false
    end
  in
  let rec go cur =
    if !runs >= budget then cur
    else
      match List.find_opt still_fails (Fuzz.shrink cur) with
      | Some smaller -> go smaller
      | None -> cur
  in
  let minimized = go f.fz_case in
  (minimized, !runs)

let fuzz ?(max_modules = 12) ?(max_libs = 6) ?on_iteration ~seed ~iterations ()
    : (int * failure) option =
  let rec go i =
    if i >= iterations then None
    else begin
      let c =
        Fuzz.generate ~max_modules ~max_libs
          ~seed:(Fuzz.derive_seed ~master:seed i)
          ()
      in
      let v = run_case c in
      (match on_iteration with Some f -> f i v | None -> ());
      match v with Pass _ -> go (i + 1) | Fail f -> Some (i, f)
    end
  in
  go 0
