(** The OMOS server.

    A persistent process (here: a persistent OCaml value living across
    simulated program invocations) that owns the namespace, the image
    cache, the address-space constraint arenas, and the blueprint
    evaluation environment. Program linking and loading are the special
    case of generic object instantiation: clients name a meta-object,
    the server evaluates its m-graph (honouring specializations),
    places the result with the constraint system, caches the mappable
    image, and maps it into client tasks. *)

exception Server_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Server_error s)) fmt

(* Address-space conventions (cf. Figure 1's "T" 0x100000
   "D" 0x40200000): libraries live in the shared arenas; client
   programs at fixed low/high bases outside them. *)
let lib_text_lo = 0x00100000
let lib_text_hi = 0x03FF0000
let lib_data_lo = 0x40000000
let lib_data_hi = 0x5FFF0000
let client_text_base = 0x04000000
let client_data_base = 0x68000000

type work_stats = {
  mutable links : int; (* full links performed *)
  mutable relocs : int; (* relocations applied by the server *)
  mutable source_compiles : int;
  mutable instantiations : int;
}

(** A recorded placement conflict: an object wanted an address it could
    not have. "OMOS could easily record the conflicts found, and
    occasionally the system manager could feed that data into OMOS'
    constraint system to determine better placements" (§4.1). *)
type conflict = {
  c_owner : string;
  c_seg : Blueprint.Mgraph.seg;
  c_wanted : Constraints.Placement.pref;
  c_got : int;
}

(* One node of the current reuse plan: the {!Analysis.Impact} verdict
   for a graph node, keyed (in [t.impact_plan]) by the node's content
   address ({!Namespace.node_address}) so evaluation finds it in O(1).
   The plan holds the nodes of the live impact trees, counted, so an
   entry leaves with the last tree carrying its address. *)
type plan_entry = {
  pe_digest : string; (* interface digest (memo key) *)
  pe_stable : bool; (* provably replay-invariant; only these memoize *)
  pe_gensym : int; (* mangling ids the subtree consumes *)
  mutable pe_refs : int; (* live-tree nodes with this address *)
}

(* One request moving through the staged pipeline (parse → lint → eval
   → place → link → map). The job carries everything a stage hands the
   next one, so stages of different requests can interleave freely. *)
type job = {
  jt : int; (* ticket = telemetry request id, assigned at submission *)
  jctx : Telemetry.Request.ctx;
      (* the request's attribution, binding journal, waits and causal
         record, from admission to completion *)
  jreq : request;
  jsubmit_us : float;
  mutable jwork_us : float; (* simulated time spent inside stages *)
  mutable jhit : bool;
  mutable jname : string;
  mutable jkey : string; (* cache key, fixed at parse *)
  mutable jgraph : Blueprint.Mgraph.node option;
  mutable jeval : Blueprint.Mgraph.result option;
  mutable jtext_size : int;
  mutable jdata_size : int;
  mutable jtdec : Constraints.Placement.decision option;
  mutable jddec : Constraints.Placement.decision option;
  mutable jreacquire_conflict : int option;
      (* wanted text base of a failed cache-hit reacquisition *)
  mutable joutcome : (response, exn) result option;
  jsync : bool;
      (* nested request: its stages run by direct call, not the scheduler *)
  mutable jnext : (string * (unit -> unit)) option;
      (* a synchronous job's next stage, run by [run_sync] *)
}

and response = {
  built : built;
  cache_hit : bool; (* served from the image cache, no link performed *)
  sim_us : float; (* submission to completion, queue wait included *)
  queue_us : float;
      (* admission + scheduler wait: the part of [sim_us] spent neither
         working nor in the two typed waits below *)
  batch_us : float; (* wait parked at the place barrier *)
  coalesce_us : float; (* wait on another request's in-flight build *)
}

and built = { entry : Cache.entry; key : string }

and target =
  | Library of {
      path : string;
      spec : (string * Blueprint.Mgraph.value list) option;
    }
  | Static of {
      name : string;
      graph : Blueprint.Mgraph.node;
      entry_symbol : string option;
    }

and request = { target : target; externals : Linker.Image.t list }

exception Overload of string

type t = {
  ns : Namespace.t;
  cache : Cache.t;
  text_arena : Constraints.Placement.t;
  data_arena : Constraints.Placement.t;
  residency : Residency.t; (* joint owner of cache <-> arena coherence *)
  kernel : Simos.Kernel.t;
  env : Blueprint.Mgraph.env;
  work : work_stats;
  lints : (string, Analysis.Lint.report) Hashtbl.t;
      (* registration-time findings per meta-object path *)
  impact_trees : (string, Analysis.Impact.tree) Hashtbl.t;
      (* registration-time dependence analysis per meta-object path *)
  impact_memos : (string, Analysis.Impact.memo) Hashtbl.t;
      (* per meta-object path: the subtree memo its re-analysis reads *)
  impact_diffs : (string, Analysis.Impact.diff Lazy.t) Hashtbl.t;
      (* verdicts of the latest re-registration of each meta path,
         computed from its (old, new) trees when first read *)
  impact_plan : (string, plan_entry) Hashtbl.t;
      (* node content address -> reuse verdict, over the live trees *)
  mutable subtree_reuse : bool; (* consult the memo table during eval? *)
  mutable conflicts : conflict list;
  (* -- the staged request pipeline -- *)
  sched : Simos.Sched.t;
  jobs : (int, job) Hashtbl.t; (* ticket -> job (pruned on delivery) *)
  mutable inflight : int;
  mutable queue_limit : int; (* admission control: max in-flight *)
  mutable batch_place : bool; (* solve queued placements as one pass? *)
  mutable place_q : job list; (* parked at the place barrier, newest-first *)
  building : (string, job) Hashtbl.t; (* cache keys being built -> leader *)
  mutable waiters : (string * job) list; (* coalesced onto an in-flight build *)
}

(* Request-path telemetry. *)
let tm_instantiations = Telemetry.Counter.make "server.instantiations"
let tm_arena_conflicts = Telemetry.Counter.make "server.arena_conflicts"
let tm_instantiate_us = Telemetry.Histogram.make "server.us.instantiate"
let tm_lint_errors = Telemetry.Counter.make "lint.errors"
let tm_lint_warnings = Telemetry.Counter.make "lint.warnings"
let tm_impact_reused = Telemetry.Counter.make "impact.reused"
let tm_impact_respun = Telemetry.Counter.make "impact.respun"
let tm_eval_us = Telemetry.Histogram.make "server.us.eval"
let tm_link_us = Telemetry.Histogram.make "server.us.link"

(* Pipeline telemetry: stage latencies, queue depths, batching. *)
let tm_queue_us = Telemetry.Histogram.make "server.us.queue"
let tm_batch_wait_us = Telemetry.Histogram.make "server.us.batch_wait"
let tm_coalesce_wait_us = Telemetry.Histogram.make "server.us.coalesce_wait"
let tm_parse_us = Telemetry.Histogram.make "server.us.parse"
let tm_place_us = Telemetry.Histogram.make "server.us.place"
let tm_batch_size = Telemetry.Histogram.make "place.batch_size"
let tm_depth = Telemetry.Histogram.make "pipeline.depth.inflight"
let tm_submitted = Telemetry.Counter.make "pipeline.submitted"
let tm_completed = Telemetry.Counter.make "pipeline.completed"
let tm_coalesced = Telemetry.Counter.make "pipeline.coalesced"
let tm_overloads = Telemetry.Counter.make "server.overloads"

(* A request that spent more than this share of its latency waiting
   (rather than working) leaves a Note in the flight ring for triage. *)
let wait_share_note_threshold = 0.5

(* -- construction --------------------------------------------------------- *)

(* Resolve a server-object path to the graph it names. The one name
   lookup behind both the evaluation env (which raises) and the
   symbol-flow analyzer (which must never raise). *)
let lookup_graph (ns : Namespace.t) (path : string) :
    (Blueprint.Mgraph.node, string) result =
  match Namespace.lookup ns path with
  | Some (Namespace.Fragment o) -> Ok (Blueprint.Mgraph.Leaf o)
  | Some (Namespace.Meta m) -> Ok (Blueprint.Meta.effective_graph m ~spec:None)
  | Some (Namespace.Directory _) -> Error (path ^ " is a directory")
  | None -> Error ("unknown server object " ^ path)

let create ~(kernel : Simos.Kernel.t) ?(faults : Residency.faults option) () : t
    =
  let ns = Namespace.create () in
  let env =
    Blueprint.Mgraph.make_env
      ~resolve:(fun path ->
        match lookup_graph ns path with
        | Ok n -> n
        | Error msg -> raise (Blueprint.Mgraph.Eval_error msg))
      ()
  in
  (* Telemetry timestamps follow the simulated clock from here on, so
     spans and phase histograms are in simulated microseconds. *)
  Telemetry.set_clock (fun () -> Simos.Clock.elapsed kernel.Simos.Kernel.clock);
  let cache = Cache.create () in
  let text_arena =
    Constraints.Placement.create ~region_lo:lib_text_lo ~region_hi:lib_text_hi ()
  in
  let data_arena =
    Constraints.Placement.create ~region_lo:lib_data_lo ~region_hi:lib_data_hi ()
  in
  let residency =
    Residency.create ~cache ~text_arena ~data_arena
      ~clock:(fun () -> Simos.Clock.elapsed kernel.Simos.Kernel.clock)
      ?faults ()
  in
  (* snapshot metadata: record the pipeline knobs so an exported
     omos.metrics/1 run is reproducible from the snapshot alone
     (Runinfo survives Telemetry.reset) *)
  Telemetry.Runinfo.set "sched_seed" (Telemetry.I 0);
  Telemetry.Runinfo.set "batch_placement" (Telemetry.B true);
  Telemetry.Runinfo.set "queue_limit" (Telemetry.I 64);
  {
    ns;
    cache;
    text_arena;
    data_arena;
    residency;
    kernel;
    env;
    work = { links = 0; relocs = 0; source_compiles = 0; instantiations = 0 };
    lints = Hashtbl.create 16;
    impact_trees = Hashtbl.create 16;
    impact_memos = Hashtbl.create 16;
    impact_diffs = Hashtbl.create 16;
    impact_plan = Hashtbl.create 64;
    subtree_reuse = true;
    conflicts = [];
    sched = Simos.Sched.create ();
    jobs = Hashtbl.create 64;
    inflight = 0;
    queue_limit = 64;
    batch_place = true;
    place_q = [];
    building = Hashtbl.create 16;
    waiters = [];
  }

(* -- read-only views ------------------------------------------------------- *)

(** Immutable snapshot of the work counters. *)
type stats = {
  links : int;
  relocs : int;
  source_compiles : int;
  instantiations : int;
}

let stats (t : t) : stats =
  {
    links = t.work.links;
    relocs = t.work.relocs;
    (* source compiles happen inside the blueprint evaluator; one server
       per process, so the global counter is this server's count *)
    source_compiles = Telemetry.Counter.get "blueprint.source_compiles";
    instantiations = t.work.instantiations;
  }

let namespace (t : t) : Namespace.t = t.ns
let cache_stats (t : t) : Cache.stats = Cache.stats t.cache
let cache_entries (t : t) : Cache.entry list = Cache.to_list t.cache
let kernel (t : t) : Simos.Kernel.t = t.kernel
let text_arena (t : t) : Constraints.Placement.t = t.text_arena
let data_arena (t : t) : Constraints.Placement.t = t.data_arena
let residency (t : t) : Residency.t = t.residency

let resolve_graph (t : t) (path : string) :
    (Blueprint.Mgraph.node, string) result =
  lookup_graph t.ns path

(* Count one live-tree node in (or out of) the reuse plan. Leaves are
   free to re-make and never enter it. *)
let plan_count (t : t) ~(by : int) (i : Analysis.Impact.info) : unit =
  match i.Analysis.Impact.i_node with
  | Blueprint.Mgraph.Leaf _ -> ()
  | _ -> (
      let a = i.Analysis.Impact.i_addr in
      match Hashtbl.find_opt t.impact_plan a with
      | Some pe ->
          pe.pe_refs <- pe.pe_refs + by;
          if pe.pe_refs <= 0 then Hashtbl.remove t.impact_plan a
      | None ->
          if by > 0 then
            Hashtbl.replace t.impact_plan a
              {
                pe_digest = i.Analysis.Impact.i_digest;
                pe_stable = i.Analysis.Impact.i_stable;
                pe_gensym = i.Analysis.Impact.i_summary.Analysis.Impact.s_gensym;
                pe_refs = by;
              })

(* Re-run the subtree dependence analysis for the binding at [path]
   and every meta-object that reaches it ({!Namespace.dependents}), the
   only bindings whose content a change at [path] can move. Each meta
   re-analyzes through its own memo, so only the respun spine is
   walked, and the plan trades the old tree's nodes for the new one's
   in proportion to what changed. A path that is no longer a
   meta-object drops its tree. Returns [path]'s own fresh tree. *)
let refresh_impact (t : t) (path : string) : Analysis.Impact.tree option =
  let refresh p =
    let old = Hashtbl.find_opt t.impact_trees p in
    let fresh =
      match Namespace.lookup t.ns p with
      | Some (Namespace.Meta m) ->
          let memo =
            match Hashtbl.find_opt t.impact_memos p with
            | Some mm -> mm
            | None ->
                let mm =
                  Analysis.Impact.create_memo
                    ~address:(Namespace.node_address t.ns)
                    ~binding:(Namespace.address t.ns)
                in
                Hashtbl.replace t.impact_memos p mm;
                mm
          in
          (* addressing the binding first records the addresses of
             every node of its graph, which the walk then reads *)
          ignore (Namespace.address t.ns p);
          let tree =
            Analysis.Impact.analyze ~memo ~resolve:(resolve_graph t)
              (Blueprint.Meta.effective_graph m ~spec:None)
          in
          Hashtbl.replace t.impact_trees p tree;
          Some tree
      | _ ->
          Hashtbl.remove t.impact_trees p;
          Hashtbl.remove t.impact_memos p;
          None
    in
    let root tr = tr.Analysis.Impact.t_root in
    Analysis.Impact.changes ~removed:(plan_count t ~by:(-1))
      ~added:(plan_count t ~by:1) (Option.map root old)
      (Option.map root fresh);
    fresh
  in
  (* [dependents] lists [path] itself first *)
  match List.map refresh (Namespace.dependents t.ns path) with
  | own :: _ -> own
  | [] -> None

(** Bind a fragment. The impact trees of the meta-objects that reach
    [path] are refreshed: their content moved with it. *)
let add_fragment (t : t) (path : string) (o : Sof.Object_file.t) : unit =
  Namespace.bind_fragment t.ns path o;
  ignore (refresh_impact t path)

(** Bind a meta-object and lint it: the symbol-flow analyzer runs at
    registration (no view materialized, no simulated cost charged), the
    finding counts feed the [lint.errors]/[lint.warnings] counters, and
    the findings replay into the provenance journal of every build of
    the meta. Registration never fails on findings — a broken blueprint
    is diagnosed again, fatally, when instantiated.

    Registration also refreshes the incremental-relinking plan: the
    {!Analysis.Impact} trees of [path] and of every meta that reaches
    it are recomputed, and if [path] was already bound the old/new
    trees are kept for {!impact_diff} — the next build of an edited
    blueprint then re-materializes only the respun spine, answering
    provably-equivalent subtrees from the memo table. The lint report
    is the base-0 replay of [path]'s own impact walk plus the root
    checks, so a memoized subtree is not linted again. *)
let register_meta (t : t) (path : string) (m : Blueprint.Meta.t) : unit =
  let old_tree = Hashtbl.find_opt t.impact_trees path in
  Namespace.bind_meta t.ns path m;
  Option.iter
    (fun nt ->
      let report = Analysis.Lint.of_walk nt.Analysis.Impact.t_lint in
      Hashtbl.replace t.lints path report;
      let errs = Analysis.Lint.errors report
      and warns = Analysis.Lint.warnings report in
      if errs > 0 then Telemetry.Counter.incr ~by:errs tm_lint_errors;
      if warns > 0 then Telemetry.Counter.incr ~by:warns tm_lint_warnings;
      Option.iter
        (fun ot ->
          Hashtbl.replace t.impact_diffs path
            (lazy (Analysis.Impact.diff ~old_tree:ot ~new_tree:nt)))
        old_tree)
    (refresh_impact t path)

(** The registration-time lint report of a bound meta-object. *)
let lint_report (t : t) (path : string) : Analysis.Lint.report option =
  Hashtbl.find_opt t.lints path

(** The registration-time dependence analysis of a bound meta-object. *)
let impact_tree (t : t) (path : string) : Analysis.Impact.tree option =
  Hashtbl.find_opt t.impact_trees path

(** The reuse/respin verdicts computed the last time [path] was
    re-registered over an existing binding. *)
let impact_diff (t : t) (path : string) : Analysis.Impact.diff option =
  Option.map Lazy.force (Hashtbl.find_opt t.impact_diffs path)

(** Toggle incremental relinking (default on): when off, evaluation
    never consults or fills the per-node memo table — the knob the
    incremental-vs-from-scratch differential oracle flips. *)
let set_subtree_reuse (t : t) (b : bool) : unit = t.subtree_reuse <- b

(** Register a meta-object from blueprint source text — parse, then
    {!register_meta}, so registration-time lint behavior is uniform no
    matter how the meta arrives. *)
let register_meta_source (t : t) (path : string) (src : string) : unit =
  register_meta t path (Blueprint.Meta.parse ~name:path src)

(** Load a meta-object source file from the simulated filesystem and
    bind it at [ns_path] — meta-objects are ordinary files ("the
    meta-objects and executable fragments providing the contents can be
    stored anywhere", §5). Routes through {!register_meta_source}. *)
let load_meta_file (t : t) ~(fs_path : string) ~(ns_path : string) : unit =
  let src = Bytes.to_string (Simos.Fs.read_file t.kernel.Simos.Kernel.fs fs_path) in
  register_meta_source t ns_path src

(** Load an object file (either backend format) from the simulated
    filesystem and bind it at [ns_path]. *)
let load_fragment_file (t : t) ~(fs_path : string) ~(ns_path : string) : unit =
  let bytes = Simos.Fs.read_file t.kernel.Simos.Kernel.fs fs_path in
  add_fragment t ns_path (Sof.Bfd.decode bytes)

let find_meta (t : t) (path : string) : Blueprint.Meta.t =
  match Namespace.lookup t.ns path with
  | Some (Namespace.Meta m) -> m
  | Some _ -> fail "%s is not a meta-object" path
  | None -> fail "unknown meta-object %s" path

(* -- evaluation & linking -------------------------------------------------- *)

(* The subtree-reuse hooks evaluation runs under. Lookup: a node whose
   reuse plan entry is stable may be answered from the memo table —
   skipping the mangling ids its evaluation would have drawn, so every
   later freeze/hide downstream mints exactly the aliases a from-scratch
   build would. Store: every freshly materialized stable node enters
   the memo table (first materialization of a digest wins). Unstable
   nodes (live freeze/hide/show below them) are never memoized: their
   bytes depend on the global mangling sequence. *)
let memo_hooks (t : t) : Blueprint.Mgraph.memo_hooks =
  let plan_of n =
    match n with
    | Blueprint.Mgraph.Leaf _ -> None (* leaves are free to re-make *)
    | n -> Hashtbl.find_opt t.impact_plan (Namespace.node_address t.ns n)
  in
  {
    lookup =
      (fun n ->
        match plan_of n with
        | Some pe when pe.pe_stable -> (
            match Cache.memo_find t.cache pe.pe_digest with
            | Some me ->
                Jigsaw.Module_ops.gensym_skip me.Cache.m_gensym;
                Telemetry.Counter.incr tm_impact_reused;
                Telemetry.Provenance.record_reused ~digest:pe.pe_digest;
                Some me.Cache.m_result
            | None -> None)
        | _ -> None);
    store =
      (fun n r ->
        match plan_of n with
        | Some pe ->
            Telemetry.Counter.incr tm_impact_respun;
            if pe.pe_stable && not (Cache.memo_mem t.cache pe.pe_digest) then
              Cache.memo_insert t.cache ~digest:pe.pe_digest
                ~gensym:pe.pe_gensym r
        | None -> ());
  }

let eval (t : t) (node : Blueprint.Mgraph.node) : Blueprint.Mgraph.result =
  let t0 = Telemetry.now_us () in
  let r =
    if t.subtree_reuse && Hashtbl.length t.impact_plan > 0 then
      Blueprint.Mgraph.eval_memo t.env (memo_hooks t) node
    else Blueprint.Mgraph.eval t.env node
  in
  Telemetry.Histogram.observe tm_eval_us (Telemetry.now_us () -. t0);
  r

(* Charge the cost of a full link to the simulated clock: this is the
   work a cache hit avoids. *)
let charge_link (t : t) (stats : Linker.Link.stats) : unit =
  t.work.links <- t.work.links + 1;
  t.work.relocs <- t.work.relocs + stats.Linker.Link.relocs_applied;
  let cost = t.kernel.Simos.Kernel.cost in
  Simos.Kernel.charge_sys t.kernel
    (cost.Simos.Cost.reloc_apply *. float_of_int stats.Linker.Link.relocs_applied);
  Simos.Kernel.charge_sys t.kernel
    (cost.Simos.Cost.symbol_lookup *. float_of_int stats.Linker.Link.symbols_resolved)

(* Human-readable placement decision for the provenance record. *)
let placement_summary
    (parts : (string * Constraints.Placement.decision option) list) : string =
  String.concat " "
    (List.map
       (fun (seg, dec) ->
         match dec with
         | None -> seg
         | Some (d : Constraints.Placement.decision) ->
             Printf.sprintf "%s@0x%08x%s%s" seg d.Constraints.Placement.base
               (if d.Constraints.Placement.reused then " (reused)" else "")
               (match d.Constraints.Placement.satisfied with
               | Some p ->
                   Format.asprintf " satisfying %a" Constraints.Placement.pp_pref p
               | None -> ""))
       parts)

(* Sizes a module will occupy, for placement before linking. *)
let module_sizes (m : Jigsaw.Module_ops.t) : int * int =
  let frags = Jigsaw.Module_ops.fragments m in
  let text =
    List.fold_left (fun a (o : Sof.Object_file.t) -> a + Bytes.length o.text) 0 frags
  in
  let data =
    List.fold_left
      (fun a (o : Sof.Object_file.t) ->
        ((a + Bytes.length o.data + 3) / 4 * 4) + o.bss_size)
      0 frags
  in
  (text, data)

(* Collect placement preferences for one segment out of the evaluated
   constraints. *)
let prefs_for (seg : Blueprint.Mgraph.seg) (cs : Blueprint.Mgraph.constraint_pref list)
    : (int * Constraints.Placement.pref) list =
  List.filter_map
    (fun (c : Blueprint.Mgraph.constraint_pref) ->
      if c.Blueprint.Mgraph.seg = seg then Some (c.priority, c.pref) else None)
    cs

(** Has this built's cache entry been evicted since it was handed out?
    Stale builts must be re-requested before mapping. *)
let built_evicted (b : built) : bool =
  b.entry.Cache.residency = Cache.Evicted

(* -- the unified request API ------------------------------------------------ *)

let library ?spec ?(externals = []) (path : string) : request =
  { target = Library { path; spec }; externals }

let static ?entry_symbol ?(externals = []) ~(name : string)
    (graph : Blueprint.Mgraph.node) : request =
  { target = Static { name; graph; entry_symbol }; externals }

let target_label = function
  | Library l -> "lib:" ^ l.path
  | Static s -> "static:" ^ s.name

(* -- the staged pipeline ----------------------------------------------------- *)

(* Stages run as cooperative scheduler tasks; a job's stages always run
   in order, but stages of different jobs interleave. Every stage
   execution resumes the job's request context (so spans, counters,
   faults recorded inside carry its (client, ticket), and journal
   events land in its journal), accumulates the simulated time it
   spent into [jwork_us], and records a stage transition in the flight
   recorder. *)

type ticket = int

let sim_now (t : t) : float = Simos.Clock.elapsed t.kernel.Simos.Kernel.clock

let ticket_id (tk : ticket) : int = tk

let stage_transition (job : job) (stage : string) : unit =
  Telemetry.Flight.record
    ~detail:(target_label job.jreq.target)
    Telemetry.Flight.Transition
    ("pipeline." ^ stage)

(* Finish a job (success or error): deliver the outcome, release the
   build-key claim, and wake coalesced waiters so they re-enter parse
   (and now find the cache populated — or rebuild after a failure). *)
let rec finish (t : t) (job : job) (outcome : (response, exn) result) : unit =
  job.joutcome <- Some outcome;
  t.inflight <- t.inflight - 1;
  Telemetry.Counter.incr tm_completed;
  (match Hashtbl.find_opt t.building job.jkey with
  | Some owner when owner == job ->
      Hashtbl.remove t.building job.jkey;
      let woken, rest =
        List.partition (fun (k, _) -> k = job.jkey) t.waiters
      in
      t.waiters <- rest;
      let now = Telemetry.now_us () in
      List.iter
        (fun (_, w) ->
          Telemetry.Request.unpark w.jctx ~at:now;
          spawn_stage t w "parse" (stage_parse t w))
        woken
  | _ -> ());
  Telemetry.Request.end_detached job.jctx

(* Run one stage body under the job's request context, trapping errors
   into the job's outcome. *)
and run_stage (t : t) (job : job) (stage : string) (f : unit -> unit) : unit =
  Telemetry.Request.resume job.jctx;
  stage_transition job stage;
  let t0 = Telemetry.now_us () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Telemetry.now_us () in
      let dt = t1 -. t0 in
      job.jwork_us <- job.jwork_us +. dt;
      Telemetry.Request.segment job.jctx ~stage ~t0 ~t1 ();
      if stage = "parse" then Telemetry.Histogram.observe tm_parse_us dt;
      Telemetry.Request.suspend ())
    (fun () -> try f () with e -> finish t job (Error e))

(* A scheduled stage carries the instant it was spawned, so its dispatch
   (spawn to run, both on the kernel's clock) enters the job's causal
   record. *)
and spawn_stage (t : t) (job : job) (stage : string) (f : unit -> unit) : unit =
  if job.jsync then job.jnext <- Some (stage, f)
  else begin
    let queued = sim_now t in
    Simos.Sched.spawn t.sched (fun () ->
        Telemetry.Request.dispatched job.jctx ~stage ~queued
          ~started:(sim_now t);
        run_stage t job stage f)
  end

(* map: the last stage — the built image is mappable; seal the
   response, observe the request-level metrics, and run the residency
   self-check after every request. *)
and stage_map (t : t) (job : job) (b : built) () : unit =
  let done_us = Telemetry.now_us () in
  let sim_us = done_us -. job.jsubmit_us in
  (* split the old queue_us (everything that was not this job's own
     work) into its typed causes; the three parts still sum to it, so
     baselines that watched queue_us stay comparable *)
  let total_wait = Float.max 0.0 (sim_us -. job.jwork_us) in
  let coalesce_us =
    Float.min (Telemetry.Request.coalesce_us job.jctx) total_wait
  in
  let batch_us =
    Float.min (Telemetry.Request.batch_us job.jctx) (total_wait -. coalesce_us)
  in
  let queue_us = total_wait -. batch_us -. coalesce_us in
  let wait_frac = if sim_us > 0.0 then total_wait /. sim_us else 0.0 in
  Telemetry.Counter.incr tm_instantiations;
  Telemetry.Histogram.observe tm_instantiate_us sim_us;
  Telemetry.Histogram.observe tm_queue_us total_wait;
  Telemetry.Histogram.observe tm_batch_wait_us batch_us;
  Telemetry.Histogram.observe tm_coalesce_wait_us coalesce_us;
  Residency.self_check t.residency;
  Telemetry.Health.record ~hit:job.jhit
    ~queue_depth:(max 0 (t.inflight - 1))
    ~wait_frac ~cost_us:sim_us ();
  if wait_frac > wait_share_note_threshold then
    Telemetry.Flight.record
      ~detail:
        (Printf.sprintf "%s wait_frac=%.2f" (target_label job.jreq.target)
           wait_frac)
      ~value:wait_frac Telemetry.Flight.Note "blame.wait_share";
  Telemetry.Request.complete job.jctx ~at:done_us ~sim_us ~hit:job.jhit;
  finish t job
    (Ok { built = b; cache_hit = job.jhit; sim_us; queue_us; batch_us; coalesce_us })

(* link: place decisions are in; perform the real link, capture the
   binding journal, insert into the cache, establish residency. A
   library links at its placed bases with undefined symbols allowed
   (they may be satisfied by clients); a static image links at the
   client bases. *)
and stage_link (t : t) (job : job) () : unit =
  let r = Option.get job.jeval in
  let name = job.jname in
  let text_base, data_base, placement, allow_undefined, entry =
    match job.jreq.target with
    | Library _ ->
        let tdec = Option.get job.jtdec and ddec = Option.get job.jddec in
        ( tdec.Constraints.Placement.base,
          ddec.Constraints.Placement.base,
          placement_summary [ ("text", Some tdec); ("data", Some ddec) ],
          true,
          None )
    | Static { entry_symbol; _ } ->
        ( client_text_base,
          client_data_base,
          Printf.sprintf "static text@0x%08x data@0x%08x" client_text_base
            client_data_base,
          false,
          entry_symbol )
  in
  let t0 = Telemetry.now_us () in
  (* the link and its simulated-cost charges share one span, so the
     profiler attributes the whole link phase to "server.link" *)
  let img, _lstats =
    Telemetry.with_span "server.link" @@ fun () ->
    let img, lstats =
      Linker.Link.link ?entry ~externals:job.jreq.externals ~allow_undefined
        ~layout:{ Linker.Link.text_base; data_base }
        (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
    in
    charge_link t lstats;
    (img, lstats)
  in
  Telemetry.Histogram.observe tm_link_us (Telemetry.now_us () -. t0);
  let provenance =
    Telemetry.Provenance.capture ~key:job.jkey ~text_base ~data_base ~placement
      ~generation:(Cache.generation t.cache) ()
  in
  Telemetry.Provenance.note_built ~name provenance;
  let e =
    Cache.insert t.cache ~key:job.jkey ~text_base ~data_base ~provenance
      (Linker.Image.with_name img name)
  in
  (match job.jreq.target with
  | Library _ -> Residency.note_placed t.residency e
  | Static _ -> Residency.note_static t.residency e);
  let b = { entry = e; key = job.jkey ^ "@" ^ Linker.Image.digest img } in
  (* a failed reacquisition of a cached placement is a conflict:
     record where the image wanted to be vs. where it went *)
  (match job.jreacquire_conflict with
  | Some wanted ->
      Telemetry.Counter.incr tm_arena_conflicts;
      t.conflicts <-
        {
          c_owner = name;
          c_seg = Blueprint.Mgraph.Seg_text;
          c_wanted = Constraints.Placement.At wanted;
          c_got = b.entry.Cache.text_base;
        }
        :: t.conflicts
  | None -> ());
  spawn_stage t job "map" (stage_map t job b)

(* place (per job): one solver pass for this job alone — every job
   under batch=off, and synchronous jobs always. *)
and stage_place (t : t) (job : job) () : unit =
  Simos.Kernel.charge_sys t.kernel
    t.kernel.Simos.Kernel.cost.Simos.Cost.place_solve;
  Telemetry.Histogram.observe tm_batch_size 1.0;
  let r = Option.get job.jeval in
  let place seg arena size =
    let prefs = prefs_for seg r.Blueprint.Mgraph.constraints in
    Some
      (place_seg t job seg arena prefs (fun () ->
           Constraints.Placement.place arena ~size ~owner:job.jname ~prefs ()))
  in
  job.jtdec <- place Blueprint.Mgraph.Seg_text t.text_arena job.jtext_size;
  job.jddec <- place Blueprint.Mgraph.Seg_data t.data_arena job.jdata_size;
  spawn_stage t job "link" (stage_link t job)

(* eval: force the m-graph (misses only — hits never re-evaluate). *)
and stage_eval (t : t) (job : job) () : unit =
  t.work.instantiations <- t.work.instantiations + 1;
  let r = eval t (Option.get job.jgraph) in
  job.jeval <- Some r;
  match job.jreq.target with
  | Static _ -> spawn_stage t job "link" (stage_link t job)
  | Library _ ->
      let text_size, data_size = module_sizes r.Blueprint.Mgraph.m in
      job.jtext_size <- max text_size 1;
      job.jdata_size <- max data_size 1;
      if t.batch_place && not job.jsync then begin
        (* park at the place barrier; the drain loop flushes the whole
           queue as one constraint pass when nothing else can run. No
           time is charged between here and the end of the eval stage,
           so the park timestamp tiles exactly against the segment. *)
        Telemetry.Request.park job.jctx Telemetry.Causal.Batch
          ~at:(Telemetry.now_us ()) ();
        t.place_q <- job :: t.place_q
      end
      else spawn_stage t job "place" (stage_place t job)

(* lint: replay the registration-time findings into the job's binding
   journal, so every build of the meta carries them. *)
and stage_lint (t : t) (job : job) () : unit =
  (match Hashtbl.find_opt t.lints job.jname with
  | Some (rep : Analysis.Lint.report) ->
      List.iter
        (fun (f : Analysis.Lint.finding) ->
          Telemetry.Provenance.record_lint ~code:f.Analysis.Lint.code
            ~severity:(Analysis.Lint.severity_to_string f.Analysis.Lint.severity)
            ~path:f.Analysis.Lint.path f.Analysis.Lint.message)
        rep.Analysis.Lint.findings
  | None -> ());
  spawn_stage t job "eval" (stage_eval t job)

(* parse: resolve the target, fix the cache key, and serve cache hits
   without touching the build stages. A job whose key is already being
   built parks as a waiter (request coalescing); a synchronous job
   never parks, so it neither waits on nor claims a build. *)
and stage_parse (t : t) (job : job) () : unit =
  let fresh () =
    if not job.jsync then Hashtbl.replace t.building job.jkey job;
    spawn_stage t job "lint" (stage_lint t job)
  in
  let hit (e : Cache.entry) =
    job.jhit <- true;
    spawn_stage t job "map"
      (stage_map t job
         {
           entry = e;
           key = job.jkey ^ "@" ^ Linker.Image.digest e.Cache.image;
         })
  in
  let kind, name, graph =
    match job.jreq.target with
    | Library { path; spec } ->
        ("lib:", path, Blueprint.Meta.effective_graph (find_meta t path) ~spec)
    | Static { name; graph; _ } -> ("static:", name, graph)
  in
  job.jname <- name;
  job.jgraph <- Some graph;
  job.jkey <-
    kind ^ name ^ ":" ^ Namespace.node_address t.ns graph
    ^ String.concat ""
        (List.map (fun i -> ":" ^ Linker.Image.digest i) job.jreq.externals);
  match Hashtbl.find_opt t.building job.jkey with
  | Some leader when not job.jsync ->
      Telemetry.Counter.incr tm_coalesced;
      (* journal the fold on the leader's build so [ofe explain] can
         show this hit was served by another in-flight request *)
      Telemetry.Provenance.record_coalesced leader.jctx;
      Telemetry.Request.park job.jctx Telemetry.Causal.Coalesce ~on:leader.jt
        ~at:(Telemetry.now_us ()) ();
      t.waiters <- t.waiters @ [ (job.jkey, job) ]
  | _ -> (
      match job.jreq.target with
      | Static _ -> (
        match Cache.find t.cache job.jkey ~acceptable:(fun _ -> true) with
        | Some e -> hit e
        | None -> fresh ())
    | Library _ -> (
        let acceptable = Residency.acceptable t.residency ~owner:job.jname in
        match Cache.find t.cache job.jkey ~acceptable with
        | Some e -> (
            (* re-establish the reservation of the revived placement *)
            match Residency.reacquire t.residency ~owner:job.jname e with
            | Ok () -> hit e
            | Error _conflicting ->
                (* the range was taken between the acceptability check
                   and the reservation (or a reserve fault fired):
                   rebuild as an alternate placement *)
                job.jreacquire_conflict <- Some e.Cache.text_base;
                fresh ())
        | None ->
            (* stale candidates whose reservations are gone drop to
               Evicted so they can never shadow the fresh construction *)
            List.iter
              (fun e -> ignore (Residency.demote_if_lost t.residency e))
              (Cache.candidates t.cache job.jkey);
            fresh ()))

(* Flush the place barrier: solve every parked placement in one
   constraint pass (ticket order), one solver charge for the whole
   batch — N queued requests, one [Constraints.Placement.place_batch]
   deltablue pass per arena instead of N independent solves. *)
and flush_place (t : t) : unit =
  let jobs =
    List.sort (fun a b -> compare a.jt b.jt) (List.rev t.place_q)
  in
  t.place_q <- [];
  match jobs with
  | [] -> ()
  | _ ->
      let n = List.length jobs in
      Telemetry.Histogram.observe tm_batch_size (float_of_int n);
      let t0 = Telemetry.now_us () in
      Simos.Kernel.charge_sys t.kernel
        t.kernel.Simos.Kernel.cost.Simos.Cost.place_solve;
      let by_index = Array.of_list jobs in
      (* per-member simulated time spent inside its own wrapped solve
         (both arenas) — the member's self-share of the flush interval;
         the residue is the shared batched-solver charge *)
      let wraps = Array.make n 0.0 in
      let solve seg arena =
        let items =
          List.map
            (fun j ->
              let r = Option.get j.jeval in
              {
                Constraints.Placement.bi_size =
                  (match seg with
                  | Blueprint.Mgraph.Seg_text -> j.jtext_size
                  | _ -> j.jdata_size);
                bi_owner = j.jname;
                bi_existing = None;
                bi_prefs = prefs_for seg r.Blueprint.Mgraph.constraints;
              })
            jobs
        in
        (* each member's individual solve runs under its own request
           context, so placement spans, counters, and injected faults
           stay attributed to the request that owns them *)
        let wrap i (it : Constraints.Placement.batch_item) f =
          let j = by_index.(i) in
          Telemetry.Request.resume j.jctx;
          let w0 = Telemetry.now_us () in
          Fun.protect
            ~finally:(fun () ->
              wraps.(i) <- wraps.(i) +. (Telemetry.now_us () -. w0);
              Telemetry.Request.suspend ())
          @@ fun () ->
          place_seg t j seg arena it.Constraints.Placement.bi_prefs f
        in
        Constraints.Placement.place_batch ~wrap arena items
      in
      let tdecs = solve Blueprint.Mgraph.Seg_text t.text_arena in
      let ddecs = solve Blueprint.Mgraph.Seg_data t.data_arena in
      let t1 = Telemetry.now_us () in
      let dt = t1 -. t0 in
      Telemetry.Histogram.observe tm_place_us dt;
      let solver_us =
        Float.max 0.0 (dt -. Array.fold_left ( +. ) 0.0 wraps)
      in
      List.iteri
        (fun i j ->
          j.jtdec <- Some (List.nth tdecs i);
          j.jddec <- Some (List.nth ddecs i);
          (* the pass worked for every member of the batch *)
          j.jwork_us <- j.jwork_us +. dt;
          Telemetry.Request.unpark j.jctx ~at:t0;
          Telemetry.Request.segment j.jctx ~stage:"place" ~t0 ~t1
            ~self:wraps.(i) ();
          Telemetry.Request.set_solver_us j.jctx solver_us;
          spawn_stage t j "link" (stage_link t j))
        jobs

(* Place one segment of one job — the single placer behind the per-job
   place stage and every individually solved member of a batched flush.
   [solve] runs under the residency fault hook (which may block the
   strongest preference first); when that preference is not honoured,
   the miss is recorded as a conflict. *)
and place_seg (t : t) (job : job) (seg : Blueprint.Mgraph.seg)
    (arena : Constraints.Placement.t)
    (prefs : (int * Constraints.Placement.pref) list)
    (solve : unit -> Constraints.Placement.decision) :
    Constraints.Placement.decision =
  let dec = Residency.with_place_conflict t.residency ~arena ~prefs solve in
  (match List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs with
  | (_, wanted) :: _ when dec.Constraints.Placement.satisfied <> Some wanted ->
      Telemetry.Counter.incr tm_arena_conflicts;
      t.conflicts <-
        {
          c_owner = job.jname;
          c_seg = seg;
          c_wanted = wanted;
          c_got = dec.Constraints.Placement.base;
        }
        :: t.conflicts
  | _ -> ());
  dec

(* -- submit / await / poll / drain ------------------------------------------ *)

(* Admit one request into the pipeline: assign the ticket (= the
   telemetry request id), run admission control, and queue the parse
   stage. A synchronous job bypasses admission control: it is a stage
   of a request that was already admitted. *)
let admit (t : t) ~(sync : bool) (req : request) : job =
  if (not sync) && t.inflight >= t.queue_limit then begin
    Telemetry.Counter.incr tm_overloads;
    (* overload is an anomaly like faults and invariant violations:
       leave a flight dump behind so the storm can be reconstructed *)
    Telemetry.Flight.record
      ~detail:(Printf.sprintf "inflight=%d limit=%d" t.inflight t.queue_limit)
      Telemetry.Flight.Fault "server.overload";
    ignore (Telemetry.Flight.trip ~reason:"overload server.submit" ());
    raise
      (Overload
         (Printf.sprintf "pipeline full: %d requests in flight (limit %d)"
            t.inflight t.queue_limit))
  end;
  let ctx =
    Telemetry.Request.begin_detached ~target:(target_label req.target)
      "instantiate"
  in
  let id = Telemetry.Request.id ctx in
  let job =
    {
      jt = id;
      jctx = ctx;
      jreq = req;
      jsubmit_us = Telemetry.now_us ();
      jwork_us = 0.0;
      jhit = false;
      jname = "";
      jkey = "";
      jgraph = None;
      jeval = None;
      jtext_size = 1;
      jdata_size = 1;
      jtdec = None;
      jddec = None;
      jreacquire_conflict = None;
      joutcome = None;
      jsync = sync;
      jnext = None;
    }
  in
  Hashtbl.replace t.jobs id job;
  t.inflight <- t.inflight + 1;
  Telemetry.Counter.incr tm_submitted;
  Telemetry.Histogram.observe tm_depth (float_of_int t.inflight);
  (* the eviction-storm fault, when enabled, empties the cache at
     admission — the request must then rebuild and re-place *)
  Telemetry.Request.resume ctx;
  ignore (Residency.maybe_evict_storm t.residency);
  Telemetry.Request.suspend ();
  spawn_stage t job "parse" (stage_parse t job);
  job

(** Admit one request into the pipeline and return its ticket. Raises
    {!Overload} when the pipeline is full. *)
let submit (t : t) (req : request) : ticket = (admit t ~sync:false req).jt

(* One pump round: run one scheduler task or, when nothing is
   runnable, flush the place barrier; [false] once the pipeline is
   quiescent. *)
let pump (t : t) : bool =
  Simos.Sched.step t.sched
  || (t.place_q <> [] && (flush_place t; true))

(** Run the pipeline until every submitted request has completed. *)
let drain (t : t) : unit =
  if not (Simos.Sched.running t.sched) then while pump t do () done

(** Requests submitted but not yet completed. *)
let in_flight (t : t) : int = t.inflight

(* Deliver a finished job's outcome (the ticket is spent). *)
let deliver (t : t) (tk : ticket) (job : job) : response =
  match job.joutcome with
  | Some (Ok r) ->
      Hashtbl.remove t.jobs tk;
      r
  | Some (Error e) ->
      Hashtbl.remove t.jobs tk;
      raise e
  | None -> fail "ticket %d has not completed" tk

(** Completed? [None] while the request is still in flight; delivers
    the response (or re-raises the request's failure) once done. A
    delivered ticket is spent. *)
let poll (t : t) (tk : ticket) : response option =
  match Hashtbl.find_opt t.jobs tk with
  | None -> fail "unknown (or already delivered) ticket %d" tk
  | Some job -> (
      match job.joutcome with None -> None | Some _ -> Some (deliver t tk job))

(** Drive the pipeline until this ticket completes, then deliver it. *)
let await (t : t) (tk : ticket) : response =
  match Hashtbl.find_opt t.jobs tk with
  | None -> fail "unknown (or already delivered) ticket %d" tk
  | Some job ->
      let rec loop () =
        match job.joutcome with
        | Some _ -> deliver t tk job
        | None ->
            if pump t then loop ()
            else fail "pipeline stalled awaiting ticket %d" tk
      in
      loop ()

(* The synchronous driver: run a synchronous job's stages in order, each
   by a direct call, until the job finishes. Its stages never park —
   it places itself at once and neither waits on nor leads a coalesced
   build — so the loop always ends with the outcome set. *)
let rec run_sync (t : t) (job : job) : unit =
  match job.jnext with
  | Some (stage, f) ->
      job.jnext <- None;
      run_stage t job stage f;
      run_sync t job
  | None -> ()

(** Serve one instantiation request synchronously: submit it, drive the
    pipeline until it completes. Opens the root ["omos.instantiate"]
    span; evaluation, placement, linking and caching all nest under it.
    A nested call — made from inside a running stage, e.g. by a
    specializer — runs the same stages through the synchronous driver:
    parking on the outer drain it is part of would deadlock. *)
let instantiate (t : t) (req : request) : response =
  if Simos.Sched.running t.sched then begin
    let job = admit t ~sync:true req in
    run_sync t job;
    deliver t job.jt job
  end
  else begin
    let span =
      Telemetry.Span.enter "omos.instantiate"
        ~attrs:[ ("target", Telemetry.S (target_label req.target)) ]
    in
    Fun.protect ~finally:(fun () -> Telemetry.Span.exit span) @@ fun () ->
    let resp = await t (submit t req) in
    Telemetry.Span.add_attr span "cache_hit" (Telemetry.B resp.cache_hit);
    resp
  end

(** [build t req] = [(instantiate t req).built] — the one-call
    convenience for callers that only want the image. *)
let build (t : t) (req : request) : built = (instantiate t req).built

(* -- pipeline knobs ---------------------------------------------------------- *)

(** Bound the number of in-flight requests ({!submit} raises
    {!Overload} beyond it). *)
let set_queue_limit (t : t) (n : int) : unit =
  if n < 1 then invalid_arg "Server.set_queue_limit";
  t.queue_limit <- n;
  Telemetry.Runinfo.set "queue_limit" (Telemetry.I n)

let queue_limit (t : t) : int = t.queue_limit

(** Solve queued placements as one batched constraint pass (default) or
    one pass per request? *)
let set_batch_placement (t : t) (b : bool) : unit =
  t.batch_place <- b;
  Telemetry.Runinfo.set "batch_placement" (Telemetry.B b)

(** Reseed the pipeline scheduler: 0 (the default) runs stages in
    strict FIFO order; any other seed interleaves ready stages in a
    deterministic shuffled order. *)
let set_sched_seed (t : t) (seed : int) : unit =
  Simos.Sched.set_seed t.sched seed;
  Telemetry.Runinfo.set "sched_seed" (Telemetry.I seed)

(** Register a specialization style (the schemes install theirs here). *)
let register_specializer (t : t) (style : string) (f : Blueprint.Mgraph.specializer) :
    unit =
  Blueprint.Mgraph.register t.env style f

(** Trim the image cache to a disk budget, releasing the arena
    reservations of evicted libraries (and only those — [static:]
    entries never held lib-arena ranges) so their address ranges can be
    reused. A later request for an evicted construction rebuilds it
    (and, via the reuse constraint, usually at the same addresses). *)
let evict_to_budget (t : t) ~(bytes : int) : int =
  Telemetry.Request.with_request "evict" @@ fun () ->
  List.length (Residency.evict_to_budget t.residency ~bytes)

(** Recorded placement conflicts, most recent first. *)
let conflicts (t : t) : conflict list = t.conflicts

(** Suggested constraint-list revisions derived from the conflict log:
    for each conflicted object, the base it actually received — feeding
    this back as its new preferred address makes future placements
    conflict-free (the "system manager could feed that data" loop). *)
let suggest_placements (t : t) : (string * Blueprint.Mgraph.seg * int) list =
  List.rev_map (fun c -> (c.c_owner, c.c_seg, c.c_got)) t.conflicts

(* -- mapping into client tasks ---------------------------------------------- *)

(** Map a built image into a process (cf. Mach [vm_map] into the target
    task): segments come from the server's memory, so they are resident
    — no file opening, no header parsing, no disk reads. *)
let map_into (t : t) ?(touch_user_cost = 0.0) ?(fresh_from_disk = false)
    (p : Simos.Proc.t) (b : built) : unit =
  if b.entry.Cache.residency = Cache.Evicted then
    fail "map_into: cached image of %s was evicted; re-instantiate it"
      b.entry.Cache.image.Linker.Image.name;
  Simos.Kernel.map_image t.kernel p ~key:b.key ~fresh_from_disk ~touch_user_cost
    b.entry.Cache.image

(** Everything needed to start a program built by a scheme. *)
type loadable = {
  parts : built list; (* map order: libraries first, client last *)
  entry : int;
}

let loadable_entry (parts : built list) : loadable =
  match
    List.find_map
      (fun (b : built) ->
        let e = b.entry.Cache.image.Linker.Image.entry in
        if e >= 0 then Some e else None)
      (List.rev parts)
  with
  | Some entry -> { parts; entry }
  | None -> fail "no entry point in any part"
