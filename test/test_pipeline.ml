(* The staged async request pipeline: submit/await semantics, batched
   placement, admission control, nested requests, and scheduler
   determinism. *)

let fresh_world () =
  let w = Omos.World.create () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  w.Omos.World.server

(* -- submit / await / poll ------------------------------------------------- *)

let test_submit_await () =
  let s = fresh_world () in
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  Alcotest.(check int) "two in flight" 2 (Omos.Server.in_flight s);
  Alcotest.(check bool) "poll pending" true (Omos.Server.poll s t1 = None);
  let r1 = Omos.Server.await s t1 in
  let r2 = Omos.Server.await s t2 in
  Alcotest.(check int) "none in flight" 0 (Omos.Server.in_flight s);
  Alcotest.(check bool) "miss 1" false r1.Omos.Server.cache_hit;
  Alcotest.(check bool) "miss 2" false r2.Omos.Server.cache_hit;
  Alcotest.(check bool) "work charged" true (r1.Omos.Server.sim_us > 0.0);
  List.iter
    (fun (r : Omos.Server.response) ->
      Alcotest.(check bool) "queue wait within total" true
        (r.Omos.Server.queue_us >= 0.0
        && r.Omos.Server.queue_us <= r.Omos.Server.sim_us))
    [ r1; r2 ];
  (* a consumed ticket is gone *)
  match Omos.Server.poll s t1 with
  | exception Omos.Server.Server_error _ -> ()
  | _ -> Alcotest.fail "consumed ticket should be unknown"

let test_sync_wrapper_unchanged () =
  let s = fresh_world () in
  let r = Omos.Server.instantiate s (Omos.Server.library "/lib/libm") in
  Alcotest.(check bool) "serial miss" false r.Omos.Server.cache_hit;
  Alcotest.(check (float 0.0)) "serial has no queue wait" 0.0 r.Omos.Server.queue_us;
  let r2 = Omos.Server.instantiate s (Omos.Server.library "/lib/libm") in
  Alcotest.(check bool) "serial hit" true r2.Omos.Server.cache_hit

(* -- coalescing ------------------------------------------------------------ *)

let test_coalescing () =
  let s = fresh_world () in
  let links0 = (Omos.Server.stats s).Omos.Server.links in
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t3 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  Omos.Server.drain s;
  let r1 = Omos.Server.await s t1 in
  let r2 = Omos.Server.await s t2 in
  let r3 = Omos.Server.await s t3 in
  Alcotest.(check bool) "first builds" false r1.Omos.Server.cache_hit;
  Alcotest.(check bool) "second coalesces to a hit" true r2.Omos.Server.cache_hit;
  Alcotest.(check bool) "third coalesces to a hit" true r3.Omos.Server.cache_hit;
  Alcotest.(check int) "one link for three requests" (links0 + 1)
    (Omos.Server.stats s).Omos.Server.links;
  Alcotest.(check int) "coalesced counter" 2
    (Telemetry.Counter.get "pipeline.coalesced")

(* -- batched placement ----------------------------------------------------- *)

(* On a contiguous free region, one batched pass must reproduce exactly
   the decisions N serial first-fit solves would make. *)
let test_batch_equals_serial () =
  let open Constraints.Placement in
  let mk () = create ~region_lo:0x1000 ~region_hi:0x100000 ~align:0x1000 () in
  let sizes = [ 0x1800; 0x400; 0x3000; 0x1000; 0x2200 ] in
  let items =
    List.mapi
      (fun i size ->
        {
          bi_size = size;
          bi_owner = Printf.sprintf "lib%d" i;
          bi_existing = None;
          bi_prefs = [];
        })
      sizes
  in
  let serial_arena = mk () in
  let serial =
    List.map
      (fun (i : batch_item) ->
        place serial_arena ~size:i.bi_size ~owner:i.bi_owner ())
      items
  in
  let batch_arena = mk () in
  let batch = place_batch batch_arena items in
  List.iteri
    (fun i ((a : decision), (b : decision)) ->
      Alcotest.(check int)
        (Printf.sprintf "base %d" i)
        a.base b.base)
    (List.combine serial batch);
  Alcotest.(check bool) "arenas end identical" true
    (intervals serial_arena = intervals batch_arena)

(* Items with preferences or reuse candidates fall out of the packed
   run but still solve to the serial answers, in order. *)
let test_batch_mixed_prefs () =
  let open Constraints.Placement in
  let mk () = create ~region_lo:0x1000 ~region_hi:0x100000 ~align:0x1000 () in
  let items =
    [
      { bi_size = 0x1000; bi_owner = "a"; bi_existing = None; bi_prefs = [] };
      {
        bi_size = 0x2000;
        bi_owner = "b";
        bi_existing = None;
        bi_prefs = [ (1, At 0x40000) ];
      };
      { bi_size = 0x1000; bi_owner = "c"; bi_existing = None; bi_prefs = [] };
      { bi_size = 0x1000; bi_owner = "d"; bi_existing = None; bi_prefs = [] };
    ]
  in
  let serial_arena = mk () in
  let serial =
    List.map
      (fun (i : batch_item) ->
        place serial_arena ~size:i.bi_size ~owner:i.bi_owner
          ~prefs:i.bi_prefs ())
      items
  in
  let batch_arena = mk () in
  let batch = place_batch batch_arena items in
  List.iteri
    (fun i ((a : decision), (b : decision)) ->
      Alcotest.(check int) (Printf.sprintf "base %d" i) a.base b.base;
      Alcotest.(check bool)
        (Printf.sprintf "satisfied %d" i)
        true
        (a.satisfied = b.satisfied))
    (List.combine serial batch)

(* Concurrent misses must meet at the place barrier: one constraint
   pass solves >= 2 queued requests, visible in place.batch_size. *)
let test_batch_size_histogram () =
  let s = fresh_world () in
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  Omos.Server.drain s;
  ignore (Omos.Server.await s t1);
  ignore (Omos.Server.await s t2);
  let h = Telemetry.Histogram.make "place.batch_size" in
  Alcotest.(check bool) "a batched pass happened" true
    (Telemetry.Histogram.count h >= 1);
  Alcotest.(check bool) "batch covered both requests" true
    (Telemetry.Histogram.max_value h >= 2.0);
  Alcotest.(check bool) "one solver pass counted" true
    (Telemetry.Counter.get "constraints.batch_solves" >= 1)

let test_unbatched_knob () =
  let s = fresh_world () in
  Omos.Server.set_batch_placement s false;
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  Omos.Server.drain s;
  ignore (Omos.Server.await s t1);
  ignore (Omos.Server.await s t2);
  let h = Telemetry.Histogram.make "place.batch_size" in
  Alcotest.(check (float 0.0)) "every pass solved one request" 1.0
    (Telemetry.Histogram.max_value h);
  Alcotest.(check int) "no batched pass" 0
    (Telemetry.Counter.get "constraints.batch_solves")

(* -- admission control ----------------------------------------------------- *)

let test_overload () =
  let s = fresh_world () in
  Omos.Server.set_queue_limit s 2;
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  (match Omos.Server.submit s (Omos.Server.library "/demo/hello") with
  | exception Omos.Server.Overload _ -> ()
  | _ -> Alcotest.fail "third submit should overload");
  Alcotest.(check int) "rejection counted" 1
    (Telemetry.Counter.get "server.overloads");
  (* rejected request left no residue; the queue drains and recovers *)
  ignore (Omos.Server.await s t1);
  ignore (Omos.Server.await s t2);
  let t3 = Omos.Server.submit s (Omos.Server.library "/demo/hello") in
  let r3 = Omos.Server.await s t3 in
  Alcotest.(check bool) "recovered" false r3.Omos.Server.cache_hit

(* -- nested requests ------------------------------------------------------- *)

(* A request made from inside a running stage: the "nested-libm"
   specializer builds /lib/libm while its own eval stage runs, then
   evaluates its operand. The nested request cannot park on the outer
   drain, so the server must serve it synchronously. *)
let nested_operands = [ "/lib/libl"; "/lib/libC"; "/lib/libal1"; "/lib/libal2" ]

let journal (e : Omos.Cache.entry) : Telemetry.Provenance.t =
  match e.Omos.Cache.provenance with
  | Some p -> p
  | None -> Alcotest.fail "cache entry has no provenance"

let binds (p : Telemetry.Provenance.t) =
  List.filter_map
    (function
      | Telemetry.Provenance.Bind { symbol; addr; _ } -> Some (symbol, addr)
      | _ -> None)
    p.Telemetry.Provenance.p_events

(* A nested request is recorded apart from the request whose stage made
   it: its own causal record, whose critical path tiles its sim_us as
   the outer requests' still tile theirs; a journal holding only its
   own build's events; and its own id on every flight event its stages
   emit (from its first stage transition in the ring to its end). *)
let check_nested_attribution ~(reference : Omos.Cache.entry)
    ~(libm : Omos.Cache.entry) (outer : Omos.Server.response list) =
  let module C = Telemetry.Causal in
  let module B = Omos.Blame in
  let module F = Telemetry.Flight in
  let nested, outers =
    List.partition (fun r -> r.C.g_target = "lib:/lib/libm") (C.requests ())
  in
  Alcotest.(check int) "a causal record per nested request" 4
    (List.length nested);
  Alcotest.(check int) "a causal record per outer request" 4
    (List.length outers);
  List.iter
    (fun r ->
      match B.critical_path r with
      | None -> Alcotest.failf "request %d never sealed" r.C.g_id
      | Some p ->
          let cursor = ref p.B.p_submit in
          List.iter
            (fun (sl : B.slice) ->
              Alcotest.(check bool) "slices tile" true (sl.B.s_from = !cursor);
              cursor := sl.B.s_until)
            p.B.p_slices;
          Alcotest.(check bool) "path ends at seal" true (!cursor = p.B.p_done);
          Alcotest.(check (float 1e-6)) "slices sum to sim_us" p.B.p_sim_us
            (List.fold_left (fun a sl -> a +. B.slice_us sl) 0.0 p.B.p_slices))
    (nested @ outers);
  Alcotest.(check string) "nested journal is its own build's"
    (Telemetry.Provenance.digest (journal reference))
    (Telemetry.Provenance.digest (journal libm));
  let libm_binds = binds (journal libm) in
  Alcotest.(check bool) "nested journal binds libm" true (libm_binds <> []);
  List.iter
    (fun (r : Omos.Server.response) ->
      let own = binds (journal r.Omos.Server.built.Omos.Server.entry) in
      Alcotest.(check bool) "outer journal has no nested binds" true
        (List.for_all (fun b -> not (List.mem b own)) libm_binds))
    outer;
  let nested_ids = List.map (fun r -> r.C.g_id) nested in
  let inside = ref None and seen = ref 0 in
  List.iter
    (fun (e : F.event) ->
      match !inside with
      | Some id ->
          Alcotest.(check int) "nested-stage event carries the nested id" id
            e.F.request;
          if e.F.kind = F.Request_end then inside := None
      | None ->
          if e.F.kind = F.Transition && e.F.detail = "lib:/lib/libm" then begin
            Alcotest.(check bool) "nested transition carries a nested id" true
              (List.mem e.F.request nested_ids);
            incr seen;
            inside := Some e.F.request
          end)
    (F.events ());
  Alcotest.(check bool) "nested stages in the ring" true (!seen > 0)

let test_nested_build batch () =
  Telemetry.Causal.set_enabled true;
  Telemetry.Provenance.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Telemetry.Causal.set_enabled false;
      Telemetry.Provenance.set_enabled false)
  @@ fun () ->
  let reference =
    Omos.Server.build (fresh_world ()) (Omos.Server.library "/lib/libm")
  in
  let s = fresh_world () in
  Omos.Server.set_batch_placement s batch;
  let nested = ref [] in
  Omos.Server.register_specializer s "nested-libm" (fun env _args node ->
      let b = Omos.Server.build s (Omos.Server.library "/lib/libm") in
      nested := b :: !nested;
      Blueprint.Mgraph.eval env node);
  (* distinct operands: each outer graph is its own construction, and
     the unmodeled style keeps every one of them out of the memo table *)
  let paths =
    List.mapi
      (fun i lib ->
        let path = Printf.sprintf "/test/nested%d" i in
        Omos.Server.register_meta_source s path
          (Printf.sprintf "(specialize \"nested-libm\" (merge %s.o))" lib);
        path)
      nested_operands
  in
  let tickets =
    List.map (fun p -> Omos.Server.submit s (Omos.Server.library p)) paths
  in
  (* every outer request completes: await would raise otherwise *)
  let outer = List.map (Omos.Server.await s) tickets in
  Alcotest.(check int) "none in flight" 0 (Omos.Server.in_flight s);
  List.iter
    (fun (r : Omos.Server.response) ->
      Alcotest.(check bool) "outer built" false r.Omos.Server.cache_hit)
    outer;
  Alcotest.(check int) "one nested build per outer eval" 4
    (List.length !nested);
  let ref_e = reference.Omos.Server.entry in
  List.iter
    (fun (b : Omos.Server.built) ->
      let e = b.Omos.Server.entry in
      Alcotest.(check string) "image digest"
        (Linker.Image.digest ref_e.Omos.Cache.image)
        (Linker.Image.digest e.Omos.Cache.image);
      Alcotest.(check int) "text base" ref_e.Omos.Cache.text_base
        e.Omos.Cache.text_base;
      Alcotest.(check int) "data base" ref_e.Omos.Cache.data_base
        e.Omos.Cache.data_base)
    !nested;
  Alcotest.(check int) "residency invariants hold" 0
    (List.length (Omos.Residency.check_invariants (Omos.Server.residency s)));
  check_nested_attribution ~reference:ref_e
    ~libm:(List.hd !nested).Omos.Server.entry outer

(* -- rebinding a fragment ------------------------------------------------------ *)

(* Rebinding a fragment changes what a blueprint naming it builds, even
   when the blueprint's text does not change: the image cache and the
   reuse plan key a construction by content address, so the next build
   links the new code, whether or not the blueprint is re-registered,
   and so does a build of a meta that reaches the fragment through
   another meta. *)
let test_rebind_rebuilds () =
  let s = fresh_world () in
  let bind name =
    Omos.Server.add_fragment s "/t/a.o"
      (Minic.Driver.compile ~name:"/t/a.o" (Printf.sprintf "int %s() { return 7; }\n" name))
  in
  let links path name =
    let b = Omos.Server.build s (Omos.Server.library path) in
    Linker.Image.find_symbol b.Omos.Server.entry.Omos.Cache.image name <> None
  in
  bind "t_one";
  Omos.Server.register_meta_source s "/t/lib" "(merge /t/a.o)";
  Omos.Server.register_meta_source s "/t/outer" "(merge /t/lib)";
  Alcotest.(check bool) "first build links t_one" true (links "/t/lib" "t_one");
  Alcotest.(check bool) "outer links t_one" true (links "/t/outer" "t_one");
  bind "t_two";
  Omos.Server.register_meta_source s "/t/lib" "(merge /t/a.o)";
  Alcotest.(check bool) "same text re-registered: links t_two" true
    (links "/t/lib" "t_two");
  Alcotest.(check bool) "... and not t_one" false (links "/t/lib" "t_one");
  bind "t_three";
  Alcotest.(check bool) "rebind alone: links t_three" true
    (links "/t/lib" "t_three");
  Alcotest.(check bool) "outer follows the rebind" true
    (links "/t/outer" "t_three")

(* -- determinism ----------------------------------------------------------- *)

let conc_spec concurrency =
  {
    Omos.Workload.default with
    Omos.Workload.requests = 24;
    seed = 11;
    concurrency;
    mix = [ ("instantiate", 1) ];
  }

let test_concurrent_determinism () =
  let a = Omos.Workload.run (conc_spec 8) in
  let b = Omos.Workload.run (conc_spec 8) in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Omos.Workload.event) (y : Omos.Workload.event) ->
      Alcotest.(check bool) "events byte-identical" true (x = y))
    a b

let test_concurrent_matches_serial () =
  let conc = Omos.Workload.run (conc_spec 8) in
  let serial = Omos.Workload.run (conc_spec 1) in
  (* same requests, same clients, same cache outcomes — only the
     timings differ (queue wait, batch amortization) *)
  List.iter2
    (fun (x : Omos.Workload.event) (y : Omos.Workload.event) ->
      Alcotest.(check int) "req" y.Omos.Workload.w_req x.Omos.Workload.w_req;
      Alcotest.(check int) "client" y.Omos.Workload.w_client x.Omos.Workload.w_client;
      Alcotest.(check string) "op" y.Omos.Workload.w_op x.Omos.Workload.w_op;
      Alcotest.(check string) "target" y.Omos.Workload.w_target x.Omos.Workload.w_target;
      Alcotest.(check bool) "hit" true (x.Omos.Workload.w_hit = y.Omos.Workload.w_hit))
    conc serial

let test_seeded_interleaving_reproducible () =
  let run () =
    let s = fresh_world () in
    Omos.Server.set_sched_seed s 42;
    let ts =
      List.map
        (fun m -> Omos.Server.submit s (Omos.Server.library m))
        [ "/lib/libm"; "/lib/libl"; "/demo/hello" ]
    in
    List.map
      (fun t ->
        let r = Omos.Server.await s t in
        (r.Omos.Server.cache_hit, r.Omos.Server.sim_us, r.Omos.Server.queue_us))
      ts
  in
  Alcotest.(check bool) "seed 42 twice: identical" true (run () = run ())

(* -- images: hashed once, never changed --------------------------------- *)

(* Table 1's programs under both schemes write into their private data
   copies (lazy binding fills dispatch slots), and a dynamically loaded
   class has a data word stored into. None of it may reach the bytes of
   an image: every memoized digest still matches its bytes. *)
let test_images_immutable_after_mapping () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server and rt = w.Omos.World.rt in
  let runs =
    List.concat_map
      (fun (name, client, libs, argss) ->
        let omos = Omos.Schemes.self_contained_program rt ~name ~client ~libs () in
        let dynamic = Omos.Schemes.dynamic_program rt ~name ~client ~libs in
        List.concat_map (fun args -> [ (omos, args); (dynamic, args) ]) argss)
      [
        ( "ls",
          Omos.World.ls_client w,
          Omos.World.ls_libs,
          [ Omos.World.ls_single_args; Omos.World.ls_laf_args ] );
        ( "codegen",
          Omos.World.codegen_client w,
          Omos.World.codegen_libs,
          [ Omos.World.codegen_args ] );
      ]
  in
  let images () =
    List.map (fun (e : Omos.Cache.entry) -> e.Omos.Cache.image) (Omos.Server.cache_entries s)
  in
  List.iter (fun img -> ignore (Linker.Image.digest img)) (images ());
  List.iter
    (fun (prog, args) ->
      let code, _ = Omos.Schemes.invoke rt prog ~args in
      Alcotest.(check int) (prog.Omos.Schemes.prog_name ^ " exits 0") 0 code)
    runs;
  let compile name src =
    Omos.Server.add_fragment s name (Minic.Driver.compile ~name src)
  in
  compile "/obj/host.o" "int main() { return 0; }";
  compile "/obj/class.o" "int counter = 5; int bump(int x) { return x + counter; }";
  let host =
    Omos.Server.build s
      (Omos.Server.static ~name:"host"
         (Blueprint.Mgraph.parse "(merge /lib/crt0.o /obj/host.o)"))
  in
  let dl = Omos.Dynload.create s in
  let p = Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ host ]) ~args:[ "host" ] in
  let bound =
    Omos.Dynload.load dl p
      ~client_images:[ host.Omos.Server.entry.Omos.Cache.image ]
      ~graph:(Blueprint.Mgraph.parse "(merge /obj/class.o)")
      ~symbols:[ "bump"; "counter" ]
  in
  Simos.Addr_space.store32 p.Simos.Proc.aspace (List.assoc "counter" bound) 99;
  List.iter
    (fun img ->
      Alcotest.(check string)
        (img.Linker.Image.name ^ ": memoized digest matches its bytes")
        (Image_reference.digest img) (Linker.Image.digest img))
    (images () @ Omos.Dynload.loaded dl p)

(* Every real hash of image bytes counts in [linker.image_digests]. Once
   libc and a client that names it in [externals] are warm, their hits
   hash nothing. A rebuild after eviction hashes twice: the built image
   keys the fresh response, and the cached (renamed) image keys the
   next hit. *)
let test_hits_hash_nothing () =
  let s = fresh_world () in
  Omos.Server.add_fragment s "/obj/memo_client.o"
    (Minic.Driver.compile ~name:"/obj/memo_client.o"
       "int main() { return strlen(\"memo\"); }");
  let libc () = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  let libc_img = (libc ()).Omos.Server.built.Omos.Server.entry.Omos.Cache.image in
  let client () =
    Omos.Server.instantiate s
      (Omos.Server.static ~name:"memo_client" ~externals:[ libc_img ]
         (Blueprint.Mgraph.parse "(merge /lib/crt0.o /obj/memo_client.o)"))
  in
  ignore (client ());
  ignore (libc ());
  ignore (client ());
  let digests () = Telemetry.Counter.get "linker.image_digests" in
  let d0 = digests () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "libc hit" true (libc ()).Omos.Server.cache_hit;
    Alcotest.(check bool) "client hit" true (client ()).Omos.Server.cache_hit
  done;
  Alcotest.(check int) "200 hits hash no image" 0 (digests () - d0);
  ignore (Omos.Server.evict_to_budget s ~bytes:0);
  let d1 = digests () in
  Alcotest.(check bool) "libc rebuilt" false (libc ()).Omos.Server.cache_hit;
  Alcotest.(check bool) "libc hit again" true (libc ()).Omos.Server.cache_hit;
  Alcotest.(check int) "a rebuild and its first hit hash twice" 2 (digests () - d1)

let () =
  Alcotest.run "pipeline"
    [
      ( "api",
        [
          Alcotest.test_case "submit/await/poll" `Quick test_submit_await;
          Alcotest.test_case "sync wrapper" `Quick test_sync_wrapper_unchanged;
          Alcotest.test_case "coalescing" `Quick test_coalescing;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch = serial solves" `Quick test_batch_equals_serial;
          Alcotest.test_case "mixed prefs" `Quick test_batch_mixed_prefs;
          Alcotest.test_case "batch_size histogram" `Quick test_batch_size_histogram;
          Alcotest.test_case "unbatched knob" `Quick test_unbatched_knob;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "overload + recovery" `Quick test_overload ] );
      ( "nested",
        [
          Alcotest.test_case "build from a specializer, batch on" `Quick
            (test_nested_build true);
          Alcotest.test_case "build from a specializer, batch off" `Quick
            (test_nested_build false);
        ] );
      ( "rebind",
        [ Alcotest.test_case "rebind rebuilds" `Quick test_rebind_rebuilds ] );
      ( "determinism",
        [
          Alcotest.test_case "concurrency=8 reproducible" `Quick
            test_concurrent_determinism;
          Alcotest.test_case "concurrent = serial results" `Quick
            test_concurrent_matches_serial;
          Alcotest.test_case "seeded interleaving" `Quick
            test_seeded_interleaving_reproducible;
        ] );
      ( "images",
        [
          Alcotest.test_case "immutable after mapping" `Quick
            test_images_immutable_after_mapping;
          Alcotest.test_case "hits hash nothing" `Quick test_hits_hash_nothing;
        ] );
    ]
