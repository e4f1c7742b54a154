(* Host-clock benchmark of the OMOS reproduction.

     omosbench.exe --workload exec|edit|serve --seed N --seconds S
                   --trace 0|1 [--spans FILE]

   Every workload is a closed loop: one caller, one process, one
   thread. Set-up is done [setup_reps] times and its median reported;
   the last world built is the one measured. The timed phase is a fixed
   number of blocks, [--seconds] times the workload's nominal block
   rate, so that two runs with one seed execute the same operations and
   report identical simulated times, allocation and layer counts.

   With [--trace 0] every block runs untraced and the end-to-end
   metrics are printed. With [--trace 1] odd blocks are traced: spans
   around each call into a layer, [Telemetry.Counter] deltas and
   [Gc.minor_words] deltas. The traced blocks give the per-layer
   metrics and the spans file; the even, untraced blocks of the same
   run give the throughput that [trace.overhead_frac] compares with.

   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

let setup_reps = 5

(* -- clocks ---------------------------------------------------------------- *)

let now_ns () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* -- spans ----------------------------------------------------------------- *)

(* The program's own work counters, read at every span boundary. *)
let counter_names =
  [ "cache.hits"; "cache.misses"; "cache.memo_hits"; "impact.reused";
    "impact.respun"; "jigsaw.ops"; "linker.links"; "linker.relocs_applied";
    "constraints.placements"; "constraints.batch_solves";
    "server.arena_conflicts"; "residency.evicted"; "pipeline.coalesced";
    "kernel.syscalls" ]

let counters = List.map Telemetry.Counter.make counter_names
let read_counters () = List.map Telemetry.Counter.value counters

(* The counters that moved since [before], with their deltas. *)
let counter_moves before =
  List.filter
    (fun (_, d) -> d <> 0)
    (List.combine counter_names (List.map2 (fun v0 v1 -> v1 - v0) before (read_counters ())))

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the operation this span belongs to; -1 for a whole block *)
  name : string;
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable words : float;  (** minor words allocated inside the span *)
  c0 : int list;
  mutable counts : (string * int) list;  (** counters that moved inside the span *)
}

let tracing = ref false
let current_op = ref 0
let next_span_id = ref 1
let open_spans : span list ref = ref []
let done_spans : span list ref = ref []

(* Run [f] inside a span named [name] when tracing; otherwise just run it. *)
let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> 0 in
    let s =
      { id = !next_span_id; parent; op = !current_op; name; t0 = now_ns (); t1 = 0L;
        w0 = Gc.minor_words (); words = 0.0; c0 = read_counters (); counts = [] }
    in
    incr next_span_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now_ns ();
        s.words <- Gc.minor_words () -. s.w0;
        s.counts <- counter_moves s.c0;
        open_spans := List.tl !open_spans;
        done_spans := s :: !done_spans)
  end

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f,\"counts\":{%s}}\n"
        s.id s.parent s.op s.name s.t0 s.t1 s.words
        (String.concat ","
           (List.map (fun (n, d) -> Printf.sprintf "\"%s\":%d" n d) s.counts)))
    (List.rev !done_spans);
  close_out oc

(* Per-name totals over the completed spans: (ns, minor words, count). *)
let span_totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ns, w, n = Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name
        (ns +. Int64.to_float (Int64.sub s.t1 s.t0), w +. s.words, n + 1))
    !done_spans;
  fun name -> Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt tbl name)

(* Sums over the traced blocks: the program's counter deltas, and counts
   the benchmark takes itself (instructions, faults, response waits). *)
let tallies : (string, float) Hashtbl.t = Hashtbl.create 16

let tally name v =
  if !tracing then
    Hashtbl.replace tallies name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tallies name))

let tallied name = Option.value ~default:0.0 (Hashtbl.find_opt tallies name)

(* Every op's label, in order: its digest shows whether two runs
   executed the same operation sequence. *)
let sequence = Buffer.create 4096
let note_op label = Buffer.add_string sequence label; Buffer.add_char sequence ';'

(* Id of the first op of the running block. *)
let op_base = ref 0

(* -- one block of operations ------------------------------------------------- *)

type block = {
  lat_ns : float list;  (** host latency of each op *)
  failed : int;
  active_ns : float;  (** host time of the ops, the benchmark's checks excluded *)
  sim_us : float;  (** simulated elapsed time of the ops *)
  words : float;  (** minor words allocated by the ops *)
}

(* Host time, minor words and simulated time of [f ()]. *)
let measure (clock : Simos.Clock.t) f =
  let snap = Simos.Clock.snapshot clock in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let ns = elapsed_ns t0 in
  let words = Gc.minor_words () -. w0 in
  let _, _, sim = Simos.Clock.since clock snap in
  (r, ns, words, sim)

(* A block of ops run one after the other; [op i] returns whether the op
   passed its check, and is measured alone. *)
let sequential clock ~ops op =
  let lats = ref [] and failed = ref 0 and active = ref 0.0 in
  let sim = ref 0.0 and words = ref 0.0 in
  for i = 0 to ops - 1 do
    current_op := !op_base + i;
    let ok, ns, w, s =
      measure clock (fun () ->
          match op i with
          | check -> check
          | exception _ -> fun () -> false)
    in
    (* the output check runs after the clocks stopped *)
    if not (ok ()) then incr failed;
    lats := ns :: !lats;
    active := !active +. ns;
    words := !words +. w;
    sim := !sim +. s
  done;
  { lat_ns = List.rev !lats; failed = !failed; active_ns = !active; sim_us = !sim;
    words = !words }

(* Run a simulated process to completion and reap it. *)
let run_process (w : Omos.World.t) ~launch_span launch =
  let k = w.Omos.World.kernel in
  let p = span launch_span launch in
  let code = span "simos.run" (fun () -> Simos.Kernel.run k p ()) in
  let out = Simos.Proc.stdout_contents p in
  if !tracing then begin
    tally "svm.instrs" (float_of_int (Simos.Proc.cpu_exn p).Svm.Cpu.instr_count);
    let soft, disk = Simos.Addr_space.fault_stats p.Simos.Proc.aspace in
    tally "simos.faults" (float_of_int (soft + disk))
  end;
  Hashtbl.remove w.Omos.World.rt.Omos.Schemes.table p.Simos.Proc.pid;
  span "simos.reap" (fun () -> Simos.Kernel.reap k p);
  (code, out)

(* A workload: [setup ()] builds the scenario and returns the block
   runner; [run_block rng b] runs block [b]. *)
type workload = {
  name : string;
  blocks_per_s : float;  (** nominal rate that sizes the run from --seconds *)
  min_blocks : int;
  setup : unit -> Random.State.t -> int -> block;
}

(* -- exec: Table 1's programs, prebuilt, invoked repeatedly ------------------ *)

(* One of Table 1's measured invocations: a program under both schemes,
   its arguments, how many times it occurs in a block, and the exit code
   and stdout of the same program linked statically. *)
type invocation = {
  omos : Omos.Schemes.program;
  dynamic : Omos.Schemes.program;
  args : string list;
  per_block : int;
  expect : int * string;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let exec_setup () =
  let w = Omos.World.create () in
  let rt = w.Omos.World.rt in
  let invocation ~name ~client ~libs ~args ~per_block =
    let static = Omos.Schemes.static_program rt ~name ~client ~libs in
    { omos = Omos.Schemes.self_contained_program rt ~name ~client ~libs ();
      dynamic = Omos.Schemes.dynamic_program rt ~name ~client ~libs;
      args; per_block; expect = Omos.Schemes.invoke rt static ~args }
  in
  let ls = invocation ~name:"ls" ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs in
  let kinds =
    [ ls ~args:Omos.World.ls_single_args ~per_block:8;
      ls ~args:Omos.World.ls_laf_args ~per_block:2;
      invocation ~name:"codegen" ~client:(Omos.World.codegen_client w)
        ~libs:Omos.World.codegen_libs ~args:Omos.World.codegen_args ~per_block:2 ]
  in
  let invoke (prog : Omos.Schemes.program) args =
    run_process w ~launch_span:"schemes.launch" (fun () -> prog.Omos.Schemes.launch ~args)
  in
  (* the first invocation pays installation builds and demand loads *)
  List.iter
    (fun k ->
      List.iter
        (fun prog ->
          if invoke prog k.args <> k.expect then
            failwith ("exec: warm-up output differs under " ^ prog.Omos.Schemes.scheme))
        [ k.omos; k.dynamic ])
    kinds;
  let block = Array.of_list (List.concat_map (fun k -> List.init k.per_block (fun _ -> k)) kinds) in
  let clock = w.Omos.World.kernel.Simos.Kernel.clock in
  (* a fixed program mix per block, in seeded order, each invocation
     under a seeded choice of scheme *)
  fun rng _ ->
    shuffle rng block;
    let picks = Array.map (fun k -> (k, if Random.State.bool rng then k.omos else k.dynamic)) block in
    Array.iter
      (fun (k, (prog : Omos.Schemes.program)) ->
        note_op (prog.Omos.Schemes.scheme ^ " " ^ String.concat " " k.args))
      picks;
    sequential clock ~ops:(Array.length picks) (fun i ->
        let k, prog = picks.(i) in
        let got = invoke prog k.args in
        fun () -> got = k.expect)

(* -- edit: one-module edits to a 1000-module library ------------------------- *)

let relink_modules = 1000

let relink_source i c =
  if i = relink_modules - 1 then
    Printf.sprintf "int relink_fn_%d(int x) { return x + %d; }\n" i c
  else
    Printf.sprintf "int relink_fn_%d(int x) { return relink_fn_%d(x) + %d; }\n" i (i + 1) c

(* A fanout-4 merge tree over the leaves, as blueprint source. *)
let rec merge_tree (leaves : string list) : string =
  match leaves with
  | [ one ] -> one
  | _ ->
      let rec chunk acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | x :: rest ->
            if n = 4 then chunk (List.rev cur :: acc) [ x ] 1 rest
            else chunk acc (x :: cur) (n + 1) rest
      in
      merge_tree
        (List.map (fun g -> "(merge " ^ String.concat " " g ^ ")") (chunk [] [] 0 leaves))

let edit_setup () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let leaves = Array.init relink_modules (Printf.sprintf "/relink/m%d.o") in
  let consts = Array.init relink_modules Fun.id in
  Array.iteri
    (fun i path ->
      Omos.Server.add_fragment s path (Minic.Driver.compile ~name:path (relink_source i i)))
    leaves;
  let register () =
    Omos.Server.register_meta_source s "/relink/lib" (merge_tree (Array.to_list leaves))
  in
  register ();
  Omos.Server.add_fragment s "/obj/relink_check.o"
    (Minic.Driver.compile ~name:"/obj/relink_check.o"
       "int main() { putint(relink_fn_0(0)); return 0; }\n");
  let check_graph =
    Blueprint.Mgraph.Merge
      [ Blueprint.Mgraph.Name "/lib/crt0.o"; Blueprint.Mgraph.Name "/obj/relink_check.o" ]
  in
  let sum = ref (Array.fold_left ( + ) 0 consts) in
  let version = ref 0 in
  let build_and_check () =
    let lib = span "server.build" (fun () -> Omos.Server.build s (Omos.Server.library "/relink/lib")) in
    span "edit.check" (fun () ->
        let libc = Omos.Server.build s (Omos.Server.library "/lib/libc") in
        let image (b : Omos.Server.built) = b.Omos.Server.entry.Omos.Cache.image in
        let client =
          Omos.Server.build s
            (Omos.Server.static ~name:"relink_check" ~externals:[ image lib; image libc ]
               check_graph)
        in
        let loadable = Omos.Server.loadable_entry [ lib; libc; client ] in
        run_process w ~launch_span:"boot.integrated_exec" (fun () ->
            Omos.Boot.integrated_exec s loadable ~args:[ "relink_check" ]))
  in
  let expect () = (0, string_of_int !sum) in
  if build_and_check () <> expect () then failwith "edit: unedited chain prints a wrong sum";
  let clock = w.Omos.World.kernel.Simos.Kernel.clock in
  fun rng _ ->
    let i = Random.State.int rng relink_modules in
    let c = Random.State.int rng 100_000 in
    let c = if c = consts.(i) then c + 1 else c in
    note_op (Printf.sprintf "m%d=%d" i c);
    sequential clock ~ops:1 (fun _ ->
        incr version;
        let path = Printf.sprintf "/relink/m%d.v%d.o" i !version in
        let obj = span "minic.compile" (fun () -> Minic.Driver.compile ~name:path (relink_source i c)) in
        span "server.add_fragment" (fun () -> Omos.Server.add_fragment s path obj);
        leaves.(i) <- path;
        sum := !sum - consts.(i) + c;
        consts.(i) <- c;
        span "server.register" register;
        let got = build_and_check () in
        fun () -> got = expect ())

(* -- serve: a request stream through the pipeline ----------------------------- *)

let serve_libs =
  [ "/lib/libc"; "/lib/libm"; "/lib/libl"; "/lib/libC"; "/lib/libal1"; "/lib/libal2" ]

let serve_clients = 16
let serve_depth = 4
let serve_evict_every = 4

let serve_setup () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let image (b : Omos.Server.built) = b.Omos.Server.entry.Omos.Cache.image in
  let libc = image (Omos.Server.build s (Omos.Server.library "/lib/libc")) in
  let clients =
    Array.init serve_clients (fun k ->
        let path = Printf.sprintf "/obj/serve_client_%d.o" k in
        Omos.Server.add_fragment s path
          (Minic.Driver.compile ~name:path
             (Printf.sprintf
                "int serve_value_%d() { return %d; }\n\
                 int main() { putint(serve_value_%d() + strlen(\"client\")); return 0; }\n"
                k (k * 7) k));
        ( Printf.sprintf "static:serve_client_%d" k,
          Omos.Server.static ~name:(Printf.sprintf "serve_client_%d" k) ~externals:[ libc ]
            (Blueprint.Mgraph.Merge
               [ Blueprint.Mgraph.Name "/lib/crt0.o"; Blueprint.Mgraph.Name path ]) ))
  in
  let libs = List.map (fun l -> ("library:" ^ l, Omos.Server.library l)) serve_libs in
  (* A library without a constraint-list is placed first-fit, so after an
     eviction it may come back at another address: its image is checked
     per placement. The first image seen at a placement fixes the digest
     every later response at that placement must have. *)
  let seen = Hashtbl.create 32 in
  let digest_ok label (e : Omos.Cache.entry) =
    let key = Printf.sprintf "%s@%x/%x" label e.Omos.Cache.text_base e.Omos.Cache.data_base in
    match Hashtbl.find_opt seen key with
    | Some (img, _) when img == e.Omos.Cache.image -> true
    | Some (_, d) ->
        Hashtbl.replace seen key (e.Omos.Cache.image, d);
        Linker.Image.digest e.Omos.Cache.image = d
    | None ->
        Hashtbl.replace seen key (e.Omos.Cache.image, Linker.Image.digest e.Omos.Cache.image);
        true
  in
  List.iter
    (fun (label, req) -> ignore (digest_ok label (Omos.Server.build s req).Omos.Server.entry))
    (libs @ Array.to_list clients);
  let clock = w.Omos.World.kernel.Simos.Kernel.clock in
  let evict_slot = ref 0 in
  fun rng b ->
    (* one eviction in every [serve_evict_every] blocks, at a seeded block *)
    if b mod serve_evict_every = 0 then evict_slot := Random.State.int rng serve_evict_every;
    let evict = b mod serve_evict_every = !evict_slot in
    (* each library twice and eight distinct clients, shuffled *)
    let chosen = Array.init serve_clients Fun.id in
    shuffle rng chosen;
    let reqs =
      Array.of_list
        (libs @ libs @ List.init (serve_clients / 2) (fun i -> clients.(chosen.(i))))
    in
    shuffle rng reqs;
    if evict then note_op "evict";
    Array.iter (fun (label, _) -> note_op label) reqs;
    let n = Array.length reqs in
    let lats = Array.make n 0.0 in
    let results = Array.make n None in
    let pending = Queue.create () in
    let complete () =
      let i, tk, t0 = Queue.pop pending in
      current_op := !op_base + i;
      (match span "server.await" (fun () -> Omos.Server.await s tk) with
      | r ->
          results.(i) <- Some r;
          tally "server.sim_us" r.Omos.Server.sim_us;
          tally "server.wait_us"
            (r.Omos.Server.queue_us +. r.Omos.Server.batch_us +. r.Omos.Server.coalesce_us)
      | exception _ -> ());
      lats.(i) <- elapsed_ns t0
    in
    let (), active, words, sim =
      measure clock (fun () ->
          current_op := -1;
          if evict then
            ignore (span "server.evict_to_budget" (fun () -> Omos.Server.evict_to_budget s ~bytes:0));
          Array.iteri
            (fun i (_, req) ->
              if Queue.length pending >= serve_depth then complete ();
              let t0 = now_ns () in
              current_op := !op_base + i;
              match span "server.submit" (fun () -> Omos.Server.submit s req) with
              | tk -> Queue.push (i, tk, t0) pending
              | exception _ -> ())
            reqs;
          current_op := -1;
          span "server.drain" (fun () -> Omos.Server.drain s);
          while not (Queue.is_empty pending) do
            complete ()
          done)
    in
    let violations = Omos.Residency.check_invariants (Omos.Server.residency s) in
    let failed = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | Some r when violations = [] && digest_ok (fst reqs.(i)) r.Omos.Server.built.Omos.Server.entry -> ()
        | _ -> incr failed)
      results;
    { lat_ns = Array.to_list lats; failed = !failed; active_ns = active; sim_us = sim; words }

let workloads =
  [ { name = "exec"; blocks_per_s = 6.0; min_blocks = 20; setup = exec_setup };
    { name = "edit"; blocks_per_s = 15.0; min_blocks = 100; setup = edit_setup };
    { name = "serve"; blocks_per_s = 80.0; min_blocks = 40; setup = serve_setup } ]

(* -- statistics and output ---------------------------------------------------- *)

(* Nearest-rank percentile. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: omosbench.exe --workload exec|edit|serve --seed N --seconds S --trace 0|1 [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spans_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spans" :: v :: rest -> spans_file := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun wl -> wl.name = !workload) workloads with
    | Some wl -> wl
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced_run = !trace = 1 in
  (* set-up, several times; the last world is the one measured *)
  let setup_times = ref [] and run_block = ref None in
  for _ = 1 to setup_reps do
    (* drop the previous world, so each set-up starts from a collected heap *)
    run_block := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let run = wl.setup () in
    setup_times := elapsed_ns t0 /. 1e9 :: !setup_times;
    run_block := Some run
  done;
  let run_block = Option.get !run_block in
  Gc.full_major ();
  let blocks = max wl.min_blocks (int_of_float (Float.round (float_of_int !seconds *. wl.blocks_per_s))) in
  let rng = Random.State.make [| !seed |] in
  let traced b = traced_run && b mod 2 = 1 in
  let untraced b = not (traced b) in
  let all _ = true in
  let ops = ref 0 in
  let results =
    Array.init blocks (fun b ->
        tracing := traced b;
        op_base := !ops;
        let before = read_counters () in
        let r = run_block rng b in
        List.iter (fun (name, d) -> tally name (float_of_int d)) (counter_moves before);
        tracing := false;
        ops := !ops + List.length r.lat_ns;
        r)
  in
  let attempted = !ops in
  let failed = Array.fold_left (fun a r -> a + r.failed) 0 results in
  (* sum of [pick r] over the blocks [b] that satisfy [sel b] *)
  let sum_over pick sel =
    let acc = ref 0.0 in
    Array.iteri (fun b r -> if sel b then acc := !acc +. pick r) results;
    !acc
  in
  let ops_in sel = sum_over (fun r -> float_of_int (List.length r.lat_ns)) sel in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  Printf.printf "op sequence digest: %s\n" (Digest.to_hex (Digest.string (Buffer.contents sequence)));
  Printf.printf "workload %s seed %d: %d blocks, %d ops, %d failed; set-up %s s\n" wl.name !seed
    blocks attempted failed
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev !setup_times)));
  let metrics =
    if not traced_run then begin
      let lats = List.concat_map (fun r -> r.lat_ns) (Array.to_list results) in
      let n = float_of_int attempted in
      Printf.printf "latency samples: %d (p90 has %d beyond it)\n" attempted
        (attempted - int_of_float (ceil (0.9 *. n)));
      [ ("ops_per_s", n /. (sum_over (fun r -> r.active_ns) all /. 1e9), "ops/s");
        ("op_ms_p50", percentile 0.5 lats /. 1e6, "ms");
        ("op_ms_p90", percentile 0.9 lats /. 1e6, "ms");
        ("setup_s", percentile 0.5 !setup_times, "s");
        ("peak_heap_mb", heap_mb, "MB");
        ("alloc_kwords_per_op", sum_over (fun r -> r.words) all /. n /. 1000.0, "kwords");
        ("sim_us_per_op", sum_over (fun r -> r.sim_us) all /. n, "us");
        ("ok_frac", (n -. float_of_int failed) /. n, "ratio") ]
    end
    else begin
      if !spans_file <> "" then write_spans !spans_file;
      let tops = ops_in traced in
      let per_op v = ratio v tops in
      let totals = span_totals () in
      let ms name = let ns, _, _ = totals name in per_op (ns /. 1e6) in
      let us_per_call name = let ns, _, n = totals name in ratio (ns /. 1e3) (float_of_int n) in
      let kwords name = let _, w, _ = totals name in per_op (w /. 1e3) in
      let cnt = tallied in
      let run_ns, run_words, _ = totals "simos.run" in
      let instrs = tallied "svm.instrs" in
      let reused = cnt "impact.reused" and respun = cnt "impact.respun" in
      let hits = cnt "cache.hits" and misses = cnt "cache.misses" in
      let rate sel = ratio (ops_in sel) (sum_over (fun r -> r.active_ns) sel /. 1e9) in
      let quarter q b = untraced b && b * 4 / blocks = q in
      let q_ms q = ratio (sum_over (fun r -> r.active_ns) (quarter q) /. 1e6) (ops_in (quarter q)) in
      let q_kwords q = ratio (sum_over (fun r -> r.words) (quarter q) /. 1e3) (ops_in (quarter q)) in
      [ ("schemes.launch_ms", ms "schemes.launch", "ms");
        ("simos.run_ms", ms "simos.run", "ms");
        ("simos.reap_ms", ms "simos.reap", "ms");
        ("svm.instrs_per_op", per_op instrs, "count");
        ("svm.ns_per_instr", ratio run_ns instrs, "ns");
        ("svm.words_per_instr", ratio run_words instrs, "words");
        ("simos.syscalls_per_op", per_op (cnt "kernel.syscalls"), "count");
        ("simos.faults_per_op", per_op (tallied "simos.faults"), "count");
        ("minic.compile_ms", ms "minic.compile", "ms");
        ("server.register_ms", ms "server.register", "ms");
        ("server.build_ms", ms "server.build", "ms");
        ("edit.check_ms", ms "edit.check", "ms");
        ("analysis.reused_per_op", per_op reused, "count");
        ("analysis.respun_per_op", per_op respun, "count");
        ("analysis.reuse_ratio", ratio reused (reused +. respun), "ratio");
        ("cache.memo_hits_per_op", per_op (cnt "cache.memo_hits"), "count");
        ("jigsaw.ops_per_op", per_op (cnt "jigsaw.ops"), "count");
        ("linker.links_per_op", per_op (cnt "linker.links"), "count");
        ("linker.relocs_per_op", per_op (cnt "linker.relocs_applied"), "count");
        ("alloc.server.register_kwords", kwords "server.register", "kwords");
        ("alloc.server.build_kwords", kwords "server.build", "kwords");
        ("server.submit_us", us_per_call "server.submit", "us");
        ("server.drain_ms_per_op", ms "server.drain", "ms");
        ("server.await_us", us_per_call "server.await", "us");
        ("cache.hit_ratio", ratio hits (hits +. misses), "ratio");
        ("constraints.placements_per_op", per_op (cnt "constraints.placements"), "count");
        ("constraints.batch_solves_per_op", per_op (cnt "constraints.batch_solves"), "count");
        ("constraints.conflict_ratio",
          ratio (cnt "server.arena_conflicts") (cnt "constraints.placements"), "ratio");
        ("residency.evicted_per_op", per_op (cnt "residency.evicted"), "count");
        ("pipeline.coalesced_per_op", per_op (cnt "pipeline.coalesced"), "count");
        ("server.sim_wait_frac", ratio (tallied "server.wait_us") (tallied "server.sim_us"), "ratio");
        ("server.ms_per_op_q1", q_ms 0, "ms");
        ("server.ms_per_op_q4", q_ms 3, "ms");
        ("alloc.server.kwords_per_op_q1", q_kwords 0, "kwords");
        ("alloc.server.kwords_per_op_q4", q_kwords 3, "kwords");
        ("trace.overhead_frac", 1.0 -. ratio (rate traced) (rate untraced), "ratio");
        ("failed_frac", ratio (float_of_int failed) (float_of_int attempted), "ratio") ]
    end
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.4f %s\n" name v unit) metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
