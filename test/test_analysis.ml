(* Tests of the symbol-flow analyzer: every diagnostic code pinned by a
   minimal triggering graph, the differential self-check over the whole
   quickstart world, the no-cost/no-materialization guarantee, and the
   restrict/project partition properties. *)

module L = Analysis.Lint
module Mg = Blueprint.Mgraph

(* a section-less object: Abs definitions only *)
let obj name syms =
  Sof.Object_file.make ~name ~text:Bytes.empty
    (List.map
       (fun (n, b) -> Sof.Symbol.make ~binding:b ~kind:Sof.Symbol.Abs ~value:0 n)
       syms)

(* helper + a caller, so removing the definition leaves a live reloc ref *)
let base_obj () =
  let a = Sof.Asm.create "/t/base.o" in
  Sof.Asm.label a "helper";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.label a "g";
  Sof.Asm.call a "helper";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.finish a

let no_resolve _ = Error "no resolver"
let analyze ?gensym_base g = L.analyze ~resolve:no_resolve ?gensym_base g

let codes (r : L.report) : string list =
  List.map (fun (f : L.finding) -> f.L.code) r.L.findings

let find_code (r : L.report) (code : string) : L.finding =
  match List.find_opt (fun (f : L.finding) -> f.L.code = code) r.L.findings with
  | Some f -> f
  | None ->
      Alcotest.failf "no %s finding (got: %s)" code
        (String.concat ", " (codes r))

(* -- the diagnostic codes ---------------------------------------------------- *)

let test_e001_unresolved_at_root () =
  let g = Mg.Restrict ("^helper$", Mg.Leaf (base_obj ())) in
  let r = analyze g in
  let f = find_code r "E001" in
  Alcotest.(check (list string)) "offending symbol" [ "helper" ] f.L.symbols;
  Alcotest.(check bool) "eval still succeeds" false r.L.eval_fails;
  Alcotest.(check (list string)) "undefined predicted" [ "helper" ] r.L.undefined;
  (* a reference that never had a definition is an import, not an error *)
  let importer =
    let a = Sof.Asm.create "/t/imp.o" in
    Sof.Asm.label a "f";
    Sof.Asm.call a "external_thing";
    Sof.Asm.instr a Svm.Isa.Ret;
    Sof.Asm.finish a
  in
  let r = analyze (Mg.Merge [ Mg.Leaf importer ]) in
  Alcotest.(check (list string)) "import is clean" [] (codes r);
  Alcotest.(check (list string)) "but still undefined" [ "external_thing" ]
    r.L.undefined;
  (* a definition from any merge operand counts, not only the first *)
  let other = obj "/t/other.o" [ ("z", Sof.Symbol.Global) ] in
  let r =
    analyze (Mg.Restrict ("^helper$", Mg.Merge [ Mg.Leaf other; Mg.Leaf (base_obj ()) ]))
  in
  Alcotest.(check (list string)) "second operand's definition" [ "helper" ]
    (find_code r "E001").L.symbols

let test_e002_duplicate_global () =
  let a = obj "/t/a.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/b.o" [ ("f", Sof.Symbol.Global) ] in
  let r = analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b ]) in
  let f = find_code r "E002" in
  Alcotest.(check (list string)) "symbol" [ "f" ] f.L.symbols;
  Alcotest.(check bool) "eval fails" true r.L.eval_fails;
  (* and evaluation really does fail *)
  (try
     ignore
       (Blueprint.Mgraph.eval
          (Blueprint.Mgraph.make_env ())
          (Mg.Merge [ Mg.Leaf a; Mg.Leaf b ]));
     Alcotest.fail "eval should raise"
   with Jigsaw.Module_ops.Module_error _ -> ());
  (* a weak duplicate is not an error *)
  let w = obj "/t/w.o" [ ("f", Sof.Symbol.Weak) ] in
  let r = analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf w ]) in
  Alcotest.(check bool) "no E002 for weak" true
    (not (List.mem "E002" (codes r)));
  (* an operand's own duplicate is reported once, where it arises, and
     a fresh one above it still is *)
  let c = obj "/t/c.o" [ ("g", Sof.Symbol.Global) ] in
  let c' = obj "/t/c2.o" [ ("g", Sof.Symbol.Global) ] in
  let r =
    analyze (Mg.Merge [ Mg.Merge [ Mg.Leaf a; Mg.Leaf b ]; Mg.Leaf c; Mg.Leaf c' ])
  in
  Alcotest.(check (list (pair string string)))
    "one E002 per merge that creates it"
    [ ("merge[0].merge", "f"); ("merge", "g") ]
    (List.map
       (fun (f : L.finding) -> (f.L.path, String.concat "," f.L.symbols))
       (List.filter (fun (f : L.finding) -> f.L.code = "E002") r.L.findings))

let test_e003_rename_collision () =
  let o = obj "/t/fg.o" [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global) ] in
  let r = analyze (Mg.Copy_as ("^f$", "g", Mg.Leaf o)) in
  let f = find_code r "E003" in
  Alcotest.(check (list string)) "symbol" [ "g" ] f.L.symbols;
  let r = analyze (Mg.Rename (Jigsaw.Module_ops.Defs_only, "^f$", "g", Mg.Leaf o)) in
  ignore (find_code r "E003");
  (* a refs-only rename cannot collide definitions *)
  let r = analyze (Mg.Rename (Jigsaw.Module_ops.Refs_only, "^f$", "g", Mg.Leaf o)) in
  Alcotest.(check (list string)) "refs-only clean" [] (codes r)

let test_e004_conflicting_constraints () =
  let o = obj "/t/c.o" [ ("f", Sof.Symbol.Global) ] in
  let g =
    Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Constrain (Mg.Seg_text, 0x2000, Mg.Leaf o))
  in
  ignore (find_code (analyze g) "E004");
  (* same address twice is no conflict; different segments neither *)
  let g = Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Leaf o)) in
  Alcotest.(check (list string)) "same addr clean" [] (codes (analyze g));
  let g = Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Constrain (Mg.Seg_data, 0x2000, Mg.Leaf o)) in
  Alcotest.(check (list string)) "cross-seg clean" [] (codes (analyze g))

let test_e005_unknown_and_cycle () =
  let r = analyze (Mg.Name "/no/such") in
  let f = find_code r "E005" in
  Alcotest.(check (list string)) "names the path" [ "/no/such" ] f.L.symbols;
  Alcotest.(check bool) "eval fails" true r.L.eval_fails;
  let resolve = function
    | "/a" -> Ok (Mg.Name "/b")
    | "/b" -> Ok (Mg.Name "/a")
    | p -> Error ("unknown " ^ p)
  in
  let r = L.analyze ~resolve (Mg.Name "/a") in
  ignore (find_code r "E005")

let test_e006_invalid_selector () =
  let o = obj "/t/f.o" [ ("f", Sof.Symbol.Global) ] in
  let r = analyze (Mg.Restrict ("^[", Mg.Leaf o)) in
  ignore (find_code r "E006");
  Alcotest.(check bool) "eval fails" true r.L.eval_fails

let test_e007_source_errors () =
  let r = analyze (Mg.Merge [ Mg.Source ("c", "int broken( {") ]) in
  ignore (find_code r "E007");
  let r = analyze (Mg.Merge [ Mg.Source ("fortran", "") ]) in
  ignore (find_code r "E007");
  (* valid source analyzes into its namespace *)
  let r = analyze (Mg.Merge [ Mg.Source ("c", "int f() { return 1; }") ]) in
  Alcotest.(check (list string)) "clean" [] (codes r);
  Alcotest.(check bool) "f exported" true (List.mem "f" r.L.exports)

let test_e008_malformed_graph () =
  let o = obj "/t/f.o" [ ("f", Sof.Symbol.Global) ] in
  ignore (find_code (analyze (Mg.Specialize ("no-such", [], Mg.Leaf o))) "E008");
  ignore (find_code (analyze (Mg.Lst [ Mg.Leaf o ])) "E008");
  ignore (find_code (analyze (Mg.Merge [])) "E008");
  ignore
    (find_code
       (analyze (Mg.Specialize ("lib-constrained", [ Mg.Vstr "T" ], Mg.Leaf o)))
       "E008")

let test_w101_dead_selectors () =
  let o = obj "/t/fg.o" [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global) ] in
  let dead op title =
    let f = find_code (analyze (op (Mg.Leaf o))) "W101" in
    Alcotest.(check string) title title f.L.title
  in
  dead (fun x -> Mg.Restrict ("^zz", x)) "dead-restrict";
  dead (fun x -> Mg.Hide ("^zz", x)) "dead-hide";
  dead (fun x -> Mg.Show (".", x)) "dead-show";
  dead (fun x -> Mg.Project (".", x)) "dead-project";
  (* live selectors stay silent *)
  Alcotest.(check (list string)) "live restrict" []
    (codes (analyze (Mg.Restrict ("^f$", Mg.Leaf o))))

let test_w102_override_overrides_nothing () =
  let a = obj "/t/a.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/b.o" [ ("h", Sof.Symbol.Global) ] in
  ignore (find_code (analyze (Mg.Override (Mg.Leaf a, Mg.Leaf b))) "W102");
  let b' = obj "/t/b2.o" [ ("f", Sof.Symbol.Global) ] in
  Alcotest.(check (list string)) "real override clean" []
    (codes (analyze (Mg.Override (Mg.Leaf a, Mg.Leaf b'))))

let test_w103_refreeze () =
  let o = obj "/t/f.o" [ ("f", Sof.Symbol.Global) ] in
  let g = Mg.Freeze ("^f$", Mg.Freeze ("^f$", Mg.Leaf o)) in
  let f = find_code (analyze g) "W103" in
  Alcotest.(check (list string)) "symbol" [ "f" ] f.L.symbols;
  (* a single live freeze is W103-clean (only the W105 instability
     warning remains: it mints a mangling-dependent alias) *)
  Alcotest.(check (list string)) "single freeze clean" [ "W105" ]
    (codes (analyze (Mg.Freeze ("^f$", Mg.Leaf o))))

let test_w104_shadowed_weak () =
  let a = obj "/t/weak.o" [ ("f", Sof.Symbol.Weak) ] in
  let b = obj "/t/strong.o" [ ("f", Sof.Symbol.Global) ] in
  let f = find_code (analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b ])) "W104" in
  Alcotest.(check (list string)) "symbol" [ "f" ] f.L.symbols;
  (* two weaks coexist silently *)
  let b' = obj "/t/weak2.o" [ ("f", Sof.Symbol.Weak) ] in
  Alcotest.(check (list string)) "weak+weak clean" []
    (codes (analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b' ])))

(* -- exactness --------------------------------------------------------------- *)

let test_verify_all_world_metas () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let metas = Omos.Namespace.all_metas (Omos.Server.namespace s) in
  Alcotest.(check bool) "world has metas" true (metas <> []);
  List.iter
    (fun path ->
      let meta = Omos.Server.find_meta s path in
      let graph = Blueprint.Meta.effective_graph meta ~spec:None in
      let _, outcome =
        L.verify_against ~eval:(Omos.Server.eval s)
          ~resolve:(Omos.Server.resolve_graph s) graph
      in
      match outcome with
      | L.Verified _ -> ()
      | L.Skipped reason -> Alcotest.failf "%s: skipped: %s" path reason
      | L.Mismatch { field; predicted; actual } ->
          Alcotest.failf "%s: %s mismatch: predicted [%s] actual [%s]" path
            field
            (String.concat " " predicted)
            (String.concat " " actual)
      | L.Eval_raised msg -> Alcotest.failf "%s: eval raised: %s" path msg)
    metas

let test_gensym_replay_after_prior_evals () =
  (* the analyzer predicts mangled freeze/hide aliases exactly even when
     earlier evaluations already advanced the global mangling counter *)
  let o =
    obj "/t/fgh.o"
      [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global); ("h", Sof.Symbol.Global) ]
  in
  ignore
    (Jigsaw.Module_ops.freeze
       (Jigsaw.Select.compile "f")
       (Jigsaw.Module_ops.of_object o));
  let graph = Mg.Show ("^f$", Mg.Freeze ("^g$", Mg.Leaf o)) in
  let env = Blueprint.Mgraph.make_env () in
  let report, outcome =
    L.verify_against ~eval:(Blueprint.Mgraph.eval env) ~resolve:no_resolve graph
  in
  (match outcome with
  | L.Verified _ -> ()
  | L.Skipped r -> Alcotest.failf "skipped: %s" r
  | L.Mismatch { field; predicted; actual } ->
      Alcotest.failf "%s mismatch: predicted [%s] actual [%s]" field
        (String.concat " " predicted)
        (String.concat " " actual)
  | L.Eval_raised m -> Alcotest.failf "eval raised: %s" m);
  Alcotest.(check bool) "f stays public" true (List.mem "f" report.L.exports);
  Alcotest.(check bool) "g demoted" false (List.mem "g" report.L.exports);
  Alcotest.(check bool) "h demoted" false (List.mem "h" report.L.exports);
  Alcotest.(check bool) "g tracked frozen" true (List.mem "g" report.L.frozen)

let test_analysis_is_free () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let k = Omos.Server.kernel s in
  let clock0 = Simos.Clock.elapsed k.Simos.Kernel.clock in
  let mat0 = Sof.View.materializations () in
  let compiles0 = Telemetry.Counter.get "blueprint.source_compiles" in
  List.iter
    (fun path ->
      let meta = Omos.Server.find_meta s path in
      ignore (L.analyze_meta ~resolve:(Omos.Server.resolve_graph s) meta))
    (Omos.Namespace.all_metas (Omos.Server.namespace s));
  (* source nodes compile host-side but charge nothing and do not count
     as evaluator compiles *)
  ignore (analyze (Mg.Merge [ Mg.Source ("c", "int f() { return 1; }") ]));
  Alcotest.(check (float 0.0)) "zero simulated cost" clock0
    (Simos.Clock.elapsed k.Simos.Kernel.clock);
  Alcotest.(check int) "zero views materialized" mat0
    (Sof.View.materializations ());
  Alcotest.(check int) "zero evaluator compiles" compiles0
    (Telemetry.Counter.get "blueprint.source_compiles")

(* -- registration & provenance ----------------------------------------------- *)

let test_registration_counters_and_provenance () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let errs0 = Telemetry.Counter.get "lint.errors" in
  let warns0 = Telemetry.Counter.get "lint.warnings" in
  Omos.Server.register_meta_source s "/test/warny" "(override /demo/impl.o /lib/libm.o)";
  Omos.Server.register_meta_source s "/test/broken" "(merge /demo/base.o /demo/base.o)";
  Alcotest.(check int) "warning counter" (warns0 + 1)
    (Telemetry.Counter.get "lint.warnings");
  Alcotest.(check int) "error counter" (errs0 + 1)
    (Telemetry.Counter.get "lint.errors");
  (match Omos.Server.lint_report s "/test/broken" with
  | Some rep ->
      Alcotest.(check bool) "E002 recorded" true (List.mem "E002" (codes rep));
      Alcotest.(check bool) "eval_fails" true rep.L.eval_fails
  | None -> Alcotest.fail "no lint report for /test/broken");
  (* findings replay into the provenance journal of the build, without
     perturbing the operator chain *)
  Telemetry.set_enabled true;
  Telemetry.Provenance.set_enabled true;
  let resp = Omos.Server.instantiate s (Omos.Server.library "/test/warny") in
  Telemetry.Provenance.set_enabled false;
  Telemetry.set_enabled false;
  let e = resp.Omos.Server.built.Omos.Server.entry in
  match e.Omos.Cache.provenance with
  | None -> Alcotest.fail "no provenance"
  | Some p ->
      Alcotest.(check bool) "W102 in journal" true
        (List.exists
           (function
             | Telemetry.Provenance.Lint { code; _ } -> code = "W102"
             | _ -> false)
           p.Telemetry.Provenance.p_events);
      Alcotest.(check bool) "operator chain untouched" true
        (not (List.mem "lint" p.Telemetry.Provenance.p_ops))

(* -- the partition and dead-selector properties ------------------------------- *)

let name_pool = [| "alpha"; "beta"; "gamma"; "delta"; "omega"; "mu" |]
let sel_pool = [| "^alpha$"; "^a"; "a$"; "^zz"; "."; "^(alpha|mu)$"; "ta" |]

let gen_names =
  QCheck.Gen.map
    (fun bits ->
      List.filteri
        (fun i _ -> bits land (1 lsl i) <> 0)
        (Array.to_list name_pool))
    (QCheck.Gen.int_bound 63)

let gen_sel = QCheck.Gen.oneofa sel_pool

let arb_case =
  QCheck.make
    ~print:(fun (ns, sel) -> String.concat "," ns ^ " / " ^ sel)
    (QCheck.Gen.pair gen_names gen_sel)

let prop_partition =
  QCheck.Test.make ~name:"restrict+project partition exports" ~count:300
    arb_case (fun (names, sel_s) ->
      let o = obj "/t/p.o" (List.map (fun n -> (n, Sof.Symbol.Global)) names) in
      let m = Jigsaw.Module_ops.of_object o in
      let sel = Jigsaw.Select.compile sel_s in
      let er = Jigsaw.Module_ops.exports (Jigsaw.Module_ops.restrict sel m) in
      let ep = Jigsaw.Module_ops.exports (Jigsaw.Module_ops.project sel m) in
      List.sort_uniq compare (er @ ep) = Jigsaw.Module_ops.exports m
      && List.for_all (fun n -> not (List.mem n ep)) er)

let prop_dead_restrict_noop =
  QCheck.Test.make ~name:"lint-dead restrict is a concrete no-op" ~count:300
    arb_case (fun (names, sel_s) ->
      let o = obj "/t/d.o" (List.map (fun n -> (n, Sof.Symbol.Global)) names) in
      let rep = analyze (Mg.Restrict (sel_s, Mg.Leaf o)) in
      (not (List.mem "W101" (codes rep)))
      ||
      let m = Jigsaw.Module_ops.of_object o in
      let m' = Jigsaw.Module_ops.restrict (Jigsaw.Select.compile sel_s) m in
      Jigsaw.Module_ops.exports m' = Jigsaw.Module_ops.exports m
      && Jigsaw.Module_ops.undefined m' = Jigsaw.Module_ops.undefined m)

let prop_dead_hide_noop =
  QCheck.Test.make ~name:"lint-dead hide is a concrete no-op" ~count:300
    arb_case (fun (names, sel_s) ->
      let o = obj "/t/h.o" (List.map (fun n -> (n, Sof.Symbol.Global)) names) in
      let rep = analyze (Mg.Hide (sel_s, Mg.Leaf o)) in
      (not (List.mem "W101" (codes rep)))
      ||
      let m = Jigsaw.Module_ops.of_object o in
      let m' = Jigsaw.Module_ops.hide (Jigsaw.Select.compile sel_s) m in
      Jigsaw.Module_ops.exports m' = Jigsaw.Module_ops.exports m)

(* -- subtree dependence (impact) ---------------------------------------------- *)

module I = Analysis.Impact

let ianalyze g = I.analyze ~resolve:no_resolve g
let iroot g = (ianalyze g).I.t_root

let test_w105_unstable_subtree () =
  let o = obj "/t/fg.o" [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global) ] in
  (* a live freeze mints a mangling-dependent alias: W105 names the
     selected symbols *)
  let f = find_code (analyze (Mg.Freeze ("^f$", Mg.Leaf o))) "W105" in
  Alcotest.(check (list string)) "freeze symbols" [ "f" ] f.L.symbols;
  ignore (find_code (analyze (Mg.Hide ("^g$", Mg.Leaf o))) "W105");
  (* show warns on the victims it hides, not the survivors *)
  let f = find_code (analyze (Mg.Show ("^f$", Mg.Leaf o))) "W105" in
  Alcotest.(check (list string)) "show victims" [ "g" ] f.L.symbols;
  (* a dead freeze mints nothing: fully clean (it only burns an id) *)
  let r = analyze (Mg.Freeze ("^zz", Mg.Leaf o)) in
  Alcotest.(check (list string)) "dead freeze clean" [] (codes r);
  (* non-minting operators stay quiet *)
  Alcotest.(check bool) "restrict no W105" false
    (List.mem "W105" (codes (analyze (Mg.Restrict ("^f$", Mg.Leaf o)))))

let test_impact_digests_and_stability () =
  let a = obj "/t/ia.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/ib.o" [ ("g", Sof.Symbol.Global) ] in
  let g = Mg.Merge [ Mg.Leaf a; Mg.Leaf b ] in
  let r1 = iroot g and r2 = iroot g in
  Alcotest.(check string) "digest deterministic" r1.I.i_digest r2.I.i_digest;
  Alcotest.(check bool) "merge of plain leaves is stable" true r1.I.i_stable;
  Alcotest.(check int) "two children" 2 (List.length r1.I.i_children);
  (* content-addressed: same shape, different leaf content *)
  let b' = obj "/t/ib.o" [ ("h", Sof.Symbol.Global) ] in
  let r3 = iroot (Mg.Merge [ Mg.Leaf a; Mg.Leaf b' ]) in
  Alcotest.(check bool) "content moves the digest" true
    (r1.I.i_digest <> r3.I.i_digest);
  (* a live freeze leaks its minted alias: unstable, one id drawn *)
  let rf = iroot (Mg.Freeze ("^f$", Mg.Leaf a)) in
  Alcotest.(check bool) "live freeze unstable" false rf.I.i_stable;
  Alcotest.(check int) "one id consumed" 1 rf.I.i_summary.I.s_gensym;
  (* a dead freeze consumes the id but mints no name: stable *)
  let rd = iroot (Mg.Freeze ("^zz", Mg.Leaf a)) in
  Alcotest.(check bool) "dead freeze stable" true rd.I.i_stable;
  Alcotest.(check int) "id still consumed" 1 rd.I.i_summary.I.s_gensym;
  (* an unresolvable name poisons stability up the spine *)
  let t = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Name "/no/such" ]) in
  Alcotest.(check bool) "approximate tree" true t.I.t_approximate;
  Alcotest.(check bool) "root unstable" false t.I.t_root.I.i_stable

let test_impact_diff_verdicts () =
  let a = obj "/t/ia.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/ib.o" [ ("g", Sof.Symbol.Global) ] in
  let c = obj "/t/ic.o" [ ("h", Sof.Symbol.Global) ] in
  let c' = obj "/t/ic.o" [ ("h2", Sof.Symbol.Global) ] in
  let old_tree = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b; Mg.Leaf c ]) in
  let new_tree = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b; Mg.Leaf c' ]) in
  let d = I.diff ~old_tree ~new_tree in
  Alcotest.(check bool) "root digest moved" true
    (d.I.d_old_digest <> d.I.d_new_digest);
  Alcotest.(check int) "siblings reused" 2 d.I.d_reused;
  Alcotest.(check int) "spine respun" 2 d.I.d_respun;
  Alcotest.(check (list string)) "spine = root + edited leaf"
    [ "merge"; "merge[2].leaf:/t/ic.o" ] d.I.d_spine;
  (* the edited leaf's reason names the first differing interface fact *)
  let leaf_verdict =
    List.find (fun v -> v.I.v_path = "merge[2].leaf:/t/ic.o") d.I.d_nodes
  in
  (match leaf_verdict.I.v_verdict with
  | I.Respin { reason } ->
      Alcotest.(check bool)
        (Printf.sprintf "reason mentions the export (%s)" reason)
        true
        (Astring.String.is_infix ~affix:"export" reason)
  | I.Reused _ -> Alcotest.fail "edited leaf must respin");
  (* verify discharges the byte-identity obligation of both reuses *)
  let env = Blueprint.Mgraph.make_env () in
  let eval n = (Blueprint.Mgraph.eval env n).Blueprint.Mgraph.m in
  let vo = I.verify ~eval ~old_tree ~new_tree d in
  Alcotest.(check int) "two digests checked" 2 vo.I.vo_checked;
  Alcotest.(check (list (pair string string))) "no failures" []
    vo.I.vo_failures;
  (* identical trees: one reused root, empty spine *)
  let d0 = I.diff ~old_tree ~new_tree:old_tree in
  Alcotest.(check int) "self-diff reuses the root" 1 d0.I.d_reused;
  Alcotest.(check int) "nothing respun" 0 d0.I.d_respun;
  Alcotest.(check (list string)) "empty spine" [] d0.I.d_spine

(* an assembled fragment: one label per (name, optional callee) *)
let asm_obj name defs =
  let a = Sof.Asm.create name in
  List.iter
    (fun (lbl, callee) ->
      Sof.Asm.label a lbl;
      (match callee with Some c -> Sof.Asm.call a c | None -> ());
      Sof.Asm.instr a Svm.Isa.Ret)
    defs;
  Sof.Asm.finish a

(* A dead freeze in a reusable subtree consumes a mangling id without
   minting a name; reusing that subtree must still skip the id so the
   live freeze downstream mints exactly the alias a from-scratch
   evaluation would. Exports (aliases included) and the flattened
   object must come out byte-identical. *)
let test_gensym_replay_after_partial_reuse () =
  let source tail =
    Printf.sprintf
      "(merge (freeze \"^zz$\" /t/ra.o) (freeze \"^bb$\" /t/rb.o) %s)" tail
  in
  let install s =
    Omos.Server.add_fragment s "/t/ra.o" (asm_obj "/t/ra.o" [ ("ra", None) ]);
    Omos.Server.add_fragment s "/t/rb.o"
      (asm_obj "/t/rb.o" [ ("bb", None); ("bb_caller", Some "bb") ]);
    Omos.Server.add_fragment s "/t/rc.o" (asm_obj "/t/rc.o" [ ("cc", None) ]);
    Omos.Server.add_fragment s "/t/rd.o" (asm_obj "/t/rd.o" [ ("dd", None) ])
  in
  let graph s = Blueprint.Meta.effective_graph (Omos.Server.find_meta s "/t/rlib") ~spec:None in
  (* world A: cold build fills the memo table, then an edited sibling *)
  let sa = (Omos.World.create ()).Omos.World.server in
  install sa;
  Omos.Server.register_meta_source sa "/t/rlib" (source "/t/rc.o");
  ignore (Omos.Server.eval sa (graph sa));
  Omos.Server.register_meta_source sa "/t/rlib" (source "/t/rd.o");
  (match Omos.Server.impact_diff sa "/t/rlib" with
  | None -> Alcotest.fail "no impact diff after re-registration"
  | Some d ->
      Alcotest.(check bool) "dead-freeze subtree reused" true
        (List.exists
           (fun v ->
             match v.I.v_verdict with
             | I.Reused _ -> v.I.v_op <> "leaf" && v.I.v_op <> "name"
             | I.Respin _ -> false)
           d.I.d_nodes));
  let g0 = Jigsaw.Module_ops.gensym_current () in
  let m_incr = (Omos.Server.eval sa (graph sa)).Blueprint.Mgraph.m in
  (* world B: same edited blueprint from scratch, reuse off, aligned to
     the same mangling baseline *)
  let sb = (Omos.World.create ()).Omos.World.server in
  Omos.Server.set_subtree_reuse sb false;
  install sb;
  Omos.Server.register_meta_source sb "/t/rlib" (source "/t/rd.o");
  let gb = graph sb in
  Jigsaw.Module_ops.gensym_set g0;
  let m_scratch = (Omos.Server.eval sb gb).Blueprint.Mgraph.m in
  Alcotest.(check (list string)) "exports identical (aliases included)"
    (Jigsaw.Module_ops.exports m_scratch)
    (Jigsaw.Module_ops.exports m_incr);
  Alcotest.(check bool) "minted alias present" true
    (List.exists
       (fun n -> Astring.String.is_prefix ~affix:"bb$frz" n)
       (Jigsaw.Module_ops.exports m_incr));
  Alcotest.(check string) "flattened object byte-identical"
    (Sof.Codec.digest (Jigsaw.Module_ops.to_object m_scratch))
    (Sof.Codec.digest (Jigsaw.Module_ops.to_object m_incr))

(* -- registration work ------------------------------------------------------- *)

let walked () = Telemetry.Counter.get "impact.nodes_walked"

(* The E_relink library shape: a chain of modules, each calling the
   next, bound as a fanout-4 merge tree. *)
let relink_source n i c =
  if i = n - 1 then Printf.sprintf "int relink_fn_%d(int x) { return x + %d; }\n" i c
  else
    Printf.sprintf "int relink_fn_%d(int x) { return relink_fn_%d(x) + %d; }\n" i
      (i + 1) c

let rec merge_tree = function
  | [ one ] -> one
  | leaves ->
      let rec chunk acc cur k = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | x :: rest ->
            if k = 4 then chunk (List.rev cur :: acc) [ x ] 1 rest
            else chunk acc (x :: cur) (k + 1) rest
      in
      merge_tree
        (List.map (fun g -> "(merge " ^ String.concat " " g ^ ")") (chunk [] [] 0 leaves))

let relink_world n =
  let s = (Omos.World.create ()).Omos.World.server in
  let leaves = Array.init n (Printf.sprintf "/relink/m%d.o") in
  Array.iteri
    (fun i p ->
      Omos.Server.add_fragment s p (Minic.Driver.compile ~name:p (relink_source n i i)))
    leaves;
  let register () =
    Omos.Server.register_meta_source s "/relink/lib" (merge_tree (Array.to_list leaves))
  in
  register ();
  (s, leaves, register)

(* Re-registering the 1000-module library with one leaf swapped walks
   the respun spine and the operands along it, not the whole tree. *)
let test_edit_walks_spine () =
  let n = 1000 in
  let s, leaves, register = relink_world n in
  let total =
    match Omos.Server.impact_tree s "/relink/lib" with
    | Some t ->
        let k = ref 0 in
        I.iter_infos (fun _ -> incr k) t;
        !k
    | None -> Alcotest.fail "no impact tree"
  in
  let depth =
    let rec go w d = if w <= 1 then d else go ((w + 3) / 4) (d + 1) in
    go n 0
  in
  Omos.Server.add_fragment s "/relink/m5v2.o"
    (Minic.Driver.compile ~name:"/relink/m5v2.o" (relink_source n 5 100005));
  leaves.(5) <- "/relink/m5v2.o";
  let w0 = walked () in
  register ();
  let nodes = walked () - w0 in
  let spine =
    match Omos.Server.impact_diff s "/relink/lib" with
    | Some d -> d.I.d_respun
    | None -> Alcotest.fail "no impact diff"
  in
  Alcotest.(check int) "whole tree" 2334 total;
  Alcotest.(check bool)
    (Printf.sprintf "walked %d <= 2 x (spine %d + 4 x depth %d)" nodes spine depth)
    true
    (nodes > 0 && nodes <= 2 * (spine + (4 * depth)))

(* The same one-leaf edit walks exactly the 7-node spine (the root, four
   merges, the edited name and its leaf) once for impact and lint
   together, and the registration-time lint report equals a
   from-scratch lint of the edited graph. *)
let test_edit_lints_spine () =
  let n = 1000 in
  let s, leaves, register = relink_world n in
  Omos.Server.add_fragment s "/relink/m7v2.o"
    (Minic.Driver.compile ~name:"/relink/m7v2.o" (relink_source n 7 100007));
  leaves.(7) <- "/relink/m7v2.o";
  let w0 = walked () in
  register ();
  Alcotest.(check int) "nodes walked" 7 (walked () - w0);
  let graph =
    Blueprint.Meta.effective_graph (Omos.Server.find_meta s "/relink/lib") ~spec:None
  in
  Alcotest.(check bool) "report equals a from-scratch lint" true
    (Omos.Server.lint_report s "/relink/lib"
    = Some (L.analyze ~resolve:(Omos.Server.resolve_graph s) ~gensym_base:0 graph))

(* Registering a one-line meta walks the same nodes whether or not the
   World's metas are bound: registration re-analyzes only the bindings
   an edit can reach. *)
let test_one_line_meta_walk_independent () =
  let register s =
    Omos.Server.add_fragment s "/t/one.o"
      (Minic.Driver.compile ~name:"/t/one.o" "int one() { return 1; }\n");
    let w0 = walked () in
    Omos.Server.register_meta_source s "/t/lib" "(merge /t/one.o)";
    walked () - w0
  in
  let bare = Omos.Server.create ~kernel:(Simos.Kernel.create ()) () in
  let world = (Omos.World.create ()).Omos.World.server in
  Alcotest.(check bool) "world has bound metas" true
    (List.length (Omos.Namespace.all_metas (Omos.Server.namespace world)) >= 7);
  let a = register bare and b = register world in
  Alcotest.(check bool) "some nodes walked" true (a > 0);
  Alcotest.(check int) "same walk with 0 or all World metas" a b

(* 50 seeded edits of a relink library, some rebinding a fragment path
   the library already names (with or without re-registering the same
   text): after each, the server's incrementally refreshed impact tree
   equals a fresh analysis. *)
let test_seeded_edits_match_scratch () =
  let n = 64 in
  let s, leaves, register = relink_world n in
  let rng = Random.State.make [| 13 |] in
  let check k =
    match Omos.Fuzzer.registration_matches_scratch s "/relink/lib" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "edit %d: %s" k e
  in
  for k = 1 to 50 do
    let i = Random.State.int rng n and c = Random.State.int rng 100_000 in
    (match Random.State.int rng 3 with
    | 0 ->
        (* a fresh path, re-registered *)
        let p = Printf.sprintf "/relink/m%d.e%d.o" i k in
        Omos.Server.add_fragment s p (Minic.Driver.compile ~name:p (relink_source n i c));
        leaves.(i) <- p;
        register ()
    | 1 ->
        (* the path in use, rebound; identical text re-registered *)
        Omos.Server.add_fragment s leaves.(i)
          (Minic.Driver.compile ~name:leaves.(i) (relink_source n i c));
        register ()
    | _ ->
        (* the path in use, rebound; no re-registration *)
        Omos.Server.add_fragment s leaves.(i)
          (Minic.Driver.compile ~name:leaves.(i) (relink_source n i c)));
    check k
  done

(* Incremental lint equals from-scratch lint. A fragment pool whose
   merges, overrides and rewrites raise E002, W104, W102 and E003, dead
   selectors (W101), live freezes and hides (unstable, W105), a [Name]
   to a meta and a self-reaching meta (E005): random graphs over it are
   registered, then re-registered after one subtree is replaced, and
   after each registration the server's report must equal a fresh
   [Lint.analyze] of the same graph. The stable subtrees are answered
   from the memo with their findings. *)
let equiv_pool =
  let refs name defs refs =
    Sof.Object_file.make ~name ~text:Bytes.empty
      (List.map
         (fun (n, b) -> Sof.Symbol.make ~binding:b ~kind:Sof.Symbol.Abs ~value:0 n)
         defs
      @ List.map Sof.Symbol.undef refs)
  in
  [|
    refs "/q/o0.o" [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global) ] [];
    refs "/q/o1.o" [ ("f", Sof.Symbol.Global) ] [ "h" ];
    refs "/q/o2.o" [ ("f", Sof.Symbol.Weak); ("h", Sof.Symbol.Global) ] [];
    refs "/q/o3.o" [ ("k", Sof.Symbol.Global) ] [ "f"; "g"; "h" ];
    refs "/q/o4.o" [ ("g", Sof.Symbol.Weak); ("m", Sof.Symbol.Local) ] [ "k" ];
  |]

let equiv_sels = [| "^f$"; "^g$"; "^zz"; "."; "^(f|h)$"; "^[" |]
let equiv_templates = [| "g"; "k2"; "\\1x" |]

let rec equiv_graph rng depth : Mg.node =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let sel () = pick equiv_sels and sub () = equiv_graph rng (depth - 1) in
  if depth = 0 || Random.State.int rng 4 = 0 then
    match Random.State.int rng 8 with
    | 0 -> Mg.Leaf (pick equiv_pool)
    | 1 -> Mg.Name "/q/aux"
    | 2 -> Mg.Name "/q/cyc"
    | _ -> Mg.Name (pick equiv_pool).Sof.Object_file.name
  else
    match Random.State.int rng 11 with
    | 0 | 1 | 2 -> Mg.Merge (List.init (2 + Random.State.int rng 2) (fun _ -> sub ()))
    | 3 -> Mg.Override (sub (), sub ())
    | 4 -> Mg.Restrict (sel (), sub ())
    | 5 -> Mg.Project (sel (), sub ())
    | 6 -> Mg.Copy_as (sel (), pick equiv_templates, sub ())
    | 7 ->
        Mg.Rename
          ( pick [| Jigsaw.Module_ops.Defs_only; Jigsaw.Module_ops.Both |],
            sel (),
            pick equiv_templates,
            sub () )
    | 8 -> Mg.Freeze (sel (), sub ())
    | 9 -> Mg.Hide (sel (), sub ())
    | _ -> Mg.Constrain (Mg.Seg_text, 0x1000 * (1 + Random.State.int rng 2), sub ())

(* [g] with its [k]-th node in pre-order replaced by [by] *)
let replace_nth (g : Mg.node) (k : int) (by : Mg.node) : Mg.node =
  let i = ref (-1) in
  let rec go n =
    incr i;
    if !i = k then by
    else
      match n with
      | Mg.Merge xs -> Mg.Merge (List.map go xs)
      | Mg.Override (a, b) ->
          let a = go a in
          Mg.Override (a, go b)
      | Mg.Restrict (p, x) -> Mg.Restrict (p, go x)
      | Mg.Project (p, x) -> Mg.Project (p, go x)
      | Mg.Copy_as (p, t, x) -> Mg.Copy_as (p, t, go x)
      | Mg.Rename (sc, p, t, x) -> Mg.Rename (sc, p, t, go x)
      | Mg.Freeze (p, x) -> Mg.Freeze (p, go x)
      | Mg.Hide (p, x) -> Mg.Hide (p, go x)
      | Mg.Constrain (sg, a, x) -> Mg.Constrain (sg, a, go x)
      | n -> n
  in
  go g

let rec graph_size : Mg.node -> int = function
  | Mg.Merge xs -> 1 + List.fold_left (fun a x -> a + graph_size x) 0 xs
  | Mg.Override (a, b) -> 1 + graph_size a + graph_size b
  | Mg.Restrict (_, x) | Mg.Project (_, x) | Mg.Copy_as (_, _, x)
  | Mg.Rename (_, _, _, x) | Mg.Freeze (_, x) | Mg.Hide (_, x)
  | Mg.Constrain (_, _, x) ->
      1 + graph_size x
  | _ -> 1

let prop_incremental_lint_matches_scratch =
  QCheck.Test.make ~name:"re-registration lint equals from-scratch lint"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s = Omos.Server.create ~kernel:(Simos.Kernel.create ()) () in
      Array.iter
        (fun o -> Omos.Server.add_fragment s o.Sof.Object_file.name o)
        equiv_pool;
      let meta path g = Omos.Server.register_meta s path (Blueprint.Meta.of_graph ~name:path g) in
      meta "/q/aux" (Mg.Merge [ Mg.Name "/q/o0.o"; Mg.Name "/q/o3.o" ]);
      meta "/q/cyc" (Mg.Merge [ Mg.Name "/q/o1.o"; Mg.Name "/q/cyc" ]);
      let matches g =
        meta "/q/lib" g;
        Omos.Server.lint_report s "/q/lib"
        = Some (L.analyze ~resolve:(Omos.Server.resolve_graph s) ~gensym_base:0 g)
      in
      let g = ref (equiv_graph rng 4) in
      matches !g
      && List.for_all
           (fun _ ->
             g :=
               replace_nth !g
                 (Random.State.int rng (graph_size !g))
                 (equiv_graph rng 2);
             matches !g)
           [ 1; 2; 3 ])

(* every Reused verdict over a fuzzed single-edit pair materializes
   byte-identically — the proof obligation discharged over the same
   edit distribution the incremental-relink oracle replays *)
let prop_edit_pairs_reused_byte_identical =
  QCheck.Test.make ~name:"fuzzed edit pairs: reused nodes byte-identical"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Workloads.Fuzz.generate ~max_modules:8 ~max_libs:4 ~seed () in
      match Workloads.Fuzz.mutate ~seed c with
      | None -> true
      | Some (c', _edit) ->
          let w = Omos.World.create () in
          let s = w.Omos.World.server in
          Omos.Fuzzer.install c w;
          let changed =
            List.filter
              (fun ((a : Workloads.Fuzz.libdef), b) -> a <> b)
              (List.combine c.Workloads.Fuzz.f_libs c'.Workloads.Fuzz.f_libs)
          in
          changed <> []
          && List.for_all
               (fun ((lold : Workloads.Fuzz.libdef), lnew) ->
                 let path = Workloads.Fuzz.lib_path lold in
                 let resolve = Omos.Server.resolve_graph s in
                 let graph () =
                   Blueprint.Meta.effective_graph
                     (Omos.Server.find_meta s path) ~spec:None
                 in
                 let old_tree = I.analyze ~resolve (graph ()) in
                 Omos.Server.register_meta_source s path
                   (Workloads.Fuzz.meta_source lnew);
                 let new_tree = I.analyze ~resolve (graph ()) in
                 let d = I.diff ~old_tree ~new_tree in
                 let eval n = (Omos.Server.eval s n).Blueprint.Mgraph.m in
                 let vo = I.verify ~eval ~old_tree ~new_tree d in
                 vo.I.vo_failures = [])
               changed)

let () =
  Alcotest.run "analysis"
    [
      ( "codes",
        [
          Alcotest.test_case "E001 unresolved-at-root" `Quick
            test_e001_unresolved_at_root;
          Alcotest.test_case "E002 duplicate-global" `Quick
            test_e002_duplicate_global;
          Alcotest.test_case "E003 rename-collision" `Quick
            test_e003_rename_collision;
          Alcotest.test_case "E004 conflicting-constraints" `Quick
            test_e004_conflicting_constraints;
          Alcotest.test_case "E005 unknown+cycle" `Quick
            test_e005_unknown_and_cycle;
          Alcotest.test_case "E006 invalid-selector" `Quick
            test_e006_invalid_selector;
          Alcotest.test_case "E007 source errors" `Quick test_e007_source_errors;
          Alcotest.test_case "E008 malformed graph" `Quick
            test_e008_malformed_graph;
          Alcotest.test_case "W101 dead selectors" `Quick
            test_w101_dead_selectors;
          Alcotest.test_case "W102 override nothing" `Quick
            test_w102_override_overrides_nothing;
          Alcotest.test_case "W103 refreeze" `Quick test_w103_refreeze;
          Alcotest.test_case "W104 shadowed weak" `Quick test_w104_shadowed_weak;
          Alcotest.test_case "W105 unstable subtree" `Quick
            test_w105_unstable_subtree;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "verify all world metas" `Quick
            test_verify_all_world_metas;
          Alcotest.test_case "gensym replay" `Quick
            test_gensym_replay_after_prior_evals;
          Alcotest.test_case "analysis is free" `Quick test_analysis_is_free;
        ] );
      ( "registration",
        [
          Alcotest.test_case "counters + provenance" `Quick
            test_registration_counters_and_provenance;
          Alcotest.test_case "one-leaf edit walks the spine" `Quick
            test_edit_walks_spine;
          Alcotest.test_case "one-leaf edit lints the spine" `Quick
            test_edit_lints_spine;
          Alcotest.test_case "one-line meta walk independent of namespace" `Quick
            test_one_line_meta_walk_independent;
          Alcotest.test_case "seeded edits match a fresh analysis" `Quick
            test_seeded_edits_match_scratch;
        ] );
      ( "impact",
        [
          Alcotest.test_case "digests + stability" `Quick
            test_impact_digests_and_stability;
          Alcotest.test_case "diff verdicts + verify" `Quick
            test_impact_diff_verdicts;
          Alcotest.test_case "gensym replay after partial reuse" `Quick
            test_gensym_replay_after_partial_reuse;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_partition;
          QCheck_alcotest.to_alcotest prop_dead_restrict_noop;
          QCheck_alcotest.to_alcotest prop_dead_hide_noop;
          QCheck_alcotest.to_alcotest prop_edit_pairs_reused_byte_identical;
          QCheck_alcotest.to_alcotest prop_incremental_lint_matches_scratch;
        ] );
    ]
