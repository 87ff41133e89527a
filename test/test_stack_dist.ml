(* Tests for the single-pass stack-distance engine, the closed-form sweep
   evaluators built on it, and the MRC-driven column allocator.

   The load-bearing property throughout: every number the engine reports for
   associativity [a] is byte-identical to what an [a]-way non-classifying
   LRU Sassoc (or the full machine, for the sweep evaluators) computes by
   replaying the same trace — except the three-C breakdown and
   [fills_per_way], which are not derivable from stack distances and are
   reported as zero. *)

module Access = Memtrace.Access
module Sassoc = Cache.Sassoc
module Stack_dist = Cache.Stack_dist
module Pipeline = Colcache.Pipeline
module Sweep = Colcache.Sweep

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Deterministic address/kind stream (LCG), so failures replay. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

(* --- engine vs. Sassoc, field by field --- *)

let replay_both ~sets ~ways ~max_ways ~accesses ~addr_space seed =
  let engine = Stack_dist.create ~line_size:16 ~sets ~max_ways () in
  let cache =
    Sassoc.create
      (Sassoc.config ~line_size:16 ~size_bytes:(16 * sets * ways) ~ways ())
  in
  let rand = lcg seed in
  for _ = 1 to accesses do
    let addr = rand addr_space in
    let kind = if rand 4 = 0 then Access.Write else Access.Read in
    Stack_dist.access engine ~kind addr;
    ignore (Sassoc.access cache ~kind addr)
  done;
  (engine, Sassoc.stats cache)

let check_against_sassoc ~ways engine (exact : Cache.Stats.t) =
  let s = Stack_dist.stats engine ~ways in
  check_int "accesses" exact.Cache.Stats.accesses s.Cache.Stats.accesses;
  check_int "hits" exact.Cache.Stats.hits s.Cache.Stats.hits;
  check_int "misses" exact.Cache.Stats.misses s.Cache.Stats.misses;
  check_int "evictions" exact.Cache.Stats.evictions s.Cache.Stats.evictions;
  check_int "writebacks" exact.Cache.Stats.writebacks s.Cache.Stats.writebacks

let test_associativity_one () =
  (* Direct-mapped: depth 0 is the only hit depth; victim choice is forced,
     so even the weakest configuration must agree exactly. *)
  let engine, exact =
    replay_both ~sets:8 ~ways:1 ~max_ways:1 ~accesses:600 ~addr_space:1024 11
  in
  check_against_sassoc ~ways:1 engine exact

let test_single_set () =
  (* One set: the engine is a single recency stack; check every tracked
     associativity against its own Sassoc replay. *)
  for ways = 1 to 4 do
    let engine, exact =
      replay_both ~sets:1 ~ways ~max_ways:4 ~accesses:500 ~addr_space:256 23
    in
    check_against_sassoc ~ways engine exact
  done

let test_cold_misses_only () =
  (* Distinct lines, never re-touched: every access has infinite stack
     distance — a miss at every associativity, all in the cold bucket. *)
  let engine = Stack_dist.create ~line_size:16 ~sets:4 ~max_ways:4 () in
  for i = 0 to 15 do
    Stack_dist.access engine ~kind:Access.Read (i * 16)
  done;
  check_int "accesses" 16 (Stack_dist.accesses engine);
  check_int "cold" 16 (Stack_dist.cold_misses engine);
  check_int "overflows" 0 (Stack_dist.overflows engine);
  Array.iter (fun d -> check_int "histogram empty" 0 d)
    (Stack_dist.histogram engine);
  for ways = 1 to 4 do
    check_int "all miss" 16 (Stack_dist.misses engine ~ways)
  done

let test_repeated_line () =
  (* One line touched n times: one cold miss, n-1 depth-0 hits at every
     associativity; a write makes the final eviction a writeback only once
     capacity forces it out (it never does here). *)
  let engine = Stack_dist.create ~line_size:16 ~sets:4 ~max_ways:4 () in
  for _ = 1 to 10 do
    Stack_dist.access engine ~kind:Access.Write 32
  done;
  check_int "accesses" 10 (Stack_dist.accesses engine);
  check_int "cold" 1 (Stack_dist.cold_misses engine);
  check_int "depth 0" 9 (Stack_dist.histogram engine).(0);
  for ways = 1 to 4 do
    check_int "one miss" 1 (Stack_dist.misses engine ~ways);
    check_int "rest hit" 9 (Stack_dist.hits engine ~ways);
    check_int "no writeback" 0 (Stack_dist.writebacks engine ~ways)
  done

let test_overflow_bucket () =
  (* max_ways = 2 with a 3-line working set in one set: the re-access to the
     first line has depth 2 >= max_ways, so it lands in the overflow bucket
     and misses at both tracked associativities. *)
  let engine = Stack_dist.create ~line_size:16 ~sets:1 ~max_ways:2 () in
  List.iter
    (fun a -> Stack_dist.access engine ~kind:Access.Read a)
    [ 0; 16; 32; 0 ];
  check_int "overflows" 1 (Stack_dist.overflows engine);
  check_int "cold" 3 (Stack_dist.cold_misses engine);
  check_int "misses at 2 ways" 4 (Stack_dist.misses engine ~ways:2)

let test_miss_curve_shape () =
  let engine, _ =
    replay_both ~sets:4 ~ways:4 ~max_ways:4 ~accesses:800 ~addr_space:2048 37
  in
  let curve = Stack_dist.miss_curve engine in
  check_int "curve length" 5 (Array.length curve);
  check_int "curve.(0) = accesses" (Stack_dist.accesses engine) curve.(0);
  for a = 1 to 4 do
    check_int "curve matches misses" (Stack_dist.misses engine ~ways:a)
      curve.(a);
    check_bool "nonincreasing (LRU inclusion)" true (curve.(a) <= curve.(a - 1))
  done

let hot_walk_pipeline =
  lazy
    (Pipeline.make ~init:Workloads.Kernels.init
       ~cache:(Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
       (Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20))

let test_per_tag_totals () =
  (* The per-tag engines split the global traffic: tagged accesses reach
     exactly their own engine, untagged ones only the global engine. *)
  let t = Lazy.force hot_walk_pipeline in
  let packed = Pipeline.packed_trace_of t ~proc:"hot_walk" in
  let global, per_tag =
    Stack_dist.per_tag_of_packed ~line_size:16 ~sets:32 ~max_ways:4 packed
  in
  check_int "global sees everything" (Memtrace.Packed.length packed)
    (Stack_dist.accesses global);
  let tagged = ref 0 in
  Memtrace.Trace.iter
    (fun a -> if a.Access.var <> None then incr tagged)
    (Pipeline.trace_of t ~proc:"hot_walk");
  check_int "per-tag accesses sum to tagged count" !tagged
    (Array.fold_left
       (fun acc (_, e) -> acc + Stack_dist.accesses e)
       0 per_tag);
  Array.iter
    (fun (name, e) ->
      check_bool (name ^ " engine nonempty") true
        (Stack_dist.accesses e > 0))
    per_tag

(* --- closed-form sweep evaluators vs. the machine --- *)

let mpeg_pipeline =
  lazy
    (Pipeline.make ~init:Workloads.Mpeg.init
       ~cache:(Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
       Workloads.Mpeg.program)

let check_run_stats name (exact : Machine.Run_stats.t)
    (sweep : Machine.Run_stats.t) =
  (* Everything except fills_per_way (way choice is history-dependent, not
     derivable from stack distances; no consumer reads it on sweep paths). *)
  check_int (name ^ " instructions") exact.instructions sweep.instructions;
  check_int (name ^ " cycles") exact.cycles sweep.cycles;
  check_int (name ^ " memory_accesses") exact.memory_accesses
    sweep.memory_accesses;
  check_int (name ^ " scratchpad_accesses") exact.scratchpad_accesses
    sweep.scratchpad_accesses;
  check_int (name ^ " tlb_hits") exact.tlb_hits sweep.tlb_hits;
  check_int (name ^ " tlb_misses") exact.tlb_misses sweep.tlb_misses;
  check_int (name ^ " l2_hits") exact.l2_hits sweep.l2_hits;
  check_int (name ^ " l2_misses") exact.l2_misses sweep.l2_misses;
  check_int (name ^ " prefetches") exact.prefetches sweep.prefetches;
  let e = exact.cache and s = sweep.cache in
  check_int (name ^ " cache accesses") e.Cache.Stats.accesses
    s.Cache.Stats.accesses;
  check_int (name ^ " cache hits") e.Cache.Stats.hits s.Cache.Stats.hits;
  check_int (name ^ " cache misses") e.Cache.Stats.misses s.Cache.Stats.misses;
  check_int (name ^ " cache evictions") e.Cache.Stats.evictions
    s.Cache.Stats.evictions;
  check_int (name ^ " cache writebacks") e.Cache.Stats.writebacks
    s.Cache.Stats.writebacks

let test_sweep_standard_exact () =
  let t = Lazy.force mpeg_pipeline in
  List.iter
    (fun proc ->
      let packed = Pipeline.packed_trace_of t ~proc in
      let sweep =
        match
          Sweep.standard ~cache:t.Pipeline.cache
            ~timing:Machine.Timing.default ~page_size:t.Pipeline.page_size
            ~tlb_entries:t.Pipeline.tlb_entries [ packed ]
        with
        | Some s -> s
        | None -> Alcotest.fail (proc ^ ": standard sweep infeasible")
      in
      let exact =
        Machine.System.run_packed (Pipeline.fresh_system t) packed
      in
      check_run_stats proc exact sweep)
    Workloads.Mpeg.routines

(* The copy-in set the pipeline would compute for the procedure (variables
   both read and written — see Pipeline.copy_in_vars). *)
let copy_in_of t ~proc =
  let reads = Hashtbl.create 16 and writes = Hashtbl.create 16 in
  Memtrace.Trace.iter
    (fun a ->
      match a.Access.var with
      | None -> ()
      | Some v -> (
          match a.Access.kind with
          | Access.Read | Access.Ifetch -> Hashtbl.replace reads v ()
          | Access.Write -> Hashtbl.replace writes v ()))
    (Pipeline.trace_of t ~proc);
  Hashtbl.fold
    (fun v () acc -> if Hashtbl.mem writes v then v :: acc else acc)
    reads []

let test_sweep_partitioned_exact () =
  let t = Lazy.force mpeg_pipeline in
  List.iter
    (fun proc ->
      let copy_in = copy_in_of t ~proc in
      let packed = Pipeline.packed_trace_of t ~proc in
      for scratchpad_columns = 0 to 2 do
        let part =
          Pipeline.partition t ~proc ~scratchpad_columns
            ~meth:Pipeline.Profile_based
        in
        let exact =
          let system = Pipeline.fresh_system t in
          Layout.Partition.apply ~copy_in part system;
          Machine.System.run_packed system packed
        in
        match
          Sweep.partitioned ~cache:t.Pipeline.cache
            ~timing:Machine.Timing.default ~page_size:t.Pipeline.page_size
            ~tlb_entries:t.Pipeline.tlb_entries ~part ~copy_in [ packed ]
        with
        | Some sweep ->
            check_run_stats
              (Printf.sprintf "%s/scratch=%d" proc scratchpad_columns)
              exact sweep
        | None ->
            (* Placements this decomposition cannot price (e.g. uncached
               regions sharing a page with cached data) fall back to the
               machine in the pipeline; nothing to compare. *)
            ()
      done)
    Workloads.Mpeg.routines

let test_sweep_rejects_non_lru () =
  let t = Lazy.force mpeg_pipeline in
  let packed = Pipeline.packed_trace_of t ~proc:"plus" in
  let fifo = { t.Pipeline.cache with Sassoc.policy = Cache.Policy.Fifo } in
  check_bool "FIFO not closed-form" true
    (Sweep.standard ~cache:fifo ~timing:Machine.Timing.default
       ~page_size:t.Pipeline.page_size ~tlb_entries:t.Pipeline.tlb_entries
       [ packed ]
    = None)

(* --- corrupt kind bytes --- *)

(* Six accesses whose third has kind byte 3, as a corrupt mapped file can
   hold. *)
let corrupt_packed () =
  let p = Memtrace.Packed.of_list (List.init 6 (fun i -> Access.make (16 * i))) in
  Bigarray.Array1.set (Memtrace.Packed.raw_kinds p) 2 '\003';
  p

let corrupt_error =
  Invalid_argument "Packed: access 2 has kind byte 3 (expected 0-2)"

(* Every packed feed decodes the trace's kinds before it counts anything:
   the engine it was given reads no access at all. *)
let test_corrupt_kind_rejected () =
  let p = corrupt_packed () in
  let exact () = Stack_dist.create ~line_size:16 ~sets:4 ~max_ways:2 () in
  let sampled () =
    Stack_dist.Sampled.create ~rate:1.0 ~line_size:16 ~sets:4 ~max_ways:2 ()
  in
  let rejects name feed accesses =
    Alcotest.check_raises name corrupt_error feed;
    check_int (name ^ ": nothing counted") 0 (accesses ())
  in
  let e = exact () in
  rejects "access_packed"
    (fun () -> Stack_dist.access_packed e p)
    (fun () -> Stack_dist.accesses e);
  let e = exact () in
  rejects "access_packed_sharded"
    (fun () -> Stack_dist.access_packed_sharded e ~shards:2 ~shard:0 p)
    (fun () -> Stack_dist.accesses e);
  let s = sampled () in
  rejects "Sampled.access_packed"
    (fun () -> Stack_dist.Sampled.access_packed s p)
    (fun () -> Stack_dist.Sampled.accesses s);
  let s = sampled () in
  rejects "Sampled.access_packed_sharded"
    (fun () -> Stack_dist.Sampled.access_packed_sharded s ~shards:2 ~shard:0 p)
    (fun () -> Stack_dist.Sampled.accesses s);
  (* two-access epochs: a feed that counted before it checked would have
     sealed one *)
  let w =
    Stack_dist.Windowed.create ~window:4 ~epochs:2 ~line_size:16 ~sets:4
      ~max_ways:2 ()
  in
  rejects "Windowed.observe_packed"
    (fun () -> Stack_dist.Windowed.observe_packed w p)
    (fun () -> Stack_dist.Windowed.accesses_in_window w);
  List.iter
    (fun (name, run) -> Alcotest.check_raises name corrupt_error run)
    [
      ( "per_tag_of_packed",
        fun () ->
          ignore
            (Stack_dist.per_tag_of_packed ~line_size:16 ~sets:4 ~max_ways:2 p)
      );
      ( "of_packed_parallel",
        fun () ->
          ignore
            (Stack_dist.of_packed_parallel ~jobs:2 ~line_size:16 ~sets:4
               ~max_ways:2 p) );
      ( "Sampled.of_packed_parallel",
        fun () ->
          ignore
            (Stack_dist.Sampled.of_packed_parallel ~jobs:2 ~rate:1.0
               ~line_size:16 ~sets:4 ~max_ways:2 p) );
    ]

(* The closed-form evaluators reject the byte as the engines do, through
   the same decoder, instead of failing partway through a pass. *)
let test_sweep_corrupt_kind_rejected () =
  let p = corrupt_packed () in
  let cache = Sassoc.config ~line_size:16 ~size_bytes:128 ~ways:2 () in
  let timing = Machine.Timing.default in
  List.iter
    (fun (name, run) -> Alcotest.check_raises name corrupt_error run)
    [
      ( "standard",
        fun () ->
          ignore
            (Sweep.standard ~cache ~timing ~page_size:256 ~tlb_entries:4 [ p ])
      );
      ( "standard_sampled",
        fun () ->
          ignore
            (Sweep.standard_sampled ~rate:1.0 ~cache ~timing ~page_size:256
               ~tlb_entries:4 [ p ]) );
      ( "standard_parallel",
        fun () ->
          ignore
            (Sweep.standard_parallel ~jobs:2 ~cache ~timing ~page_size:256
               ~tlb_entries:4 [ p ]) );
    ]

(* --- MRC-driven allocation --- *)

let test_mrc_alloc_greedy () =
  let curves =
    [ ("a", [| 100; 50; 10; 5; 5 |]); ("b", [| 80; 40; 35; 30; 30 |]) ]
  in
  let alloc = Layout.Mrc_alloc.allocate ~columns:4 curves in
  Alcotest.(check (list (pair string int)))
    "greedy marginal gains" [ ("a", 3); ("b", 1) ] alloc;
  check_int "predicted" (5 + 40) (Layout.Mrc_alloc.predicted_misses curves alloc);
  let masks = Layout.Mrc_alloc.to_masks alloc in
  Alcotest.(check (list int)) "a's columns" [ 0; 1; 2 ]
    (Cache.Bitmask.to_list (List.assoc "a" masks));
  Alcotest.(check (list int)) "b's columns" [ 3 ]
    (Cache.Bitmask.to_list (List.assoc "b" masks))

let test_mrc_alloc_plateau () =
  (* All-zero marginals must not strand columns while a curve still has
     points (miss curves need not be convex). *)
  let curves = [ ("a", [| 10; 10; 10 |]); ("b", [| 10; 10 |]) ] in
  let alloc = Layout.Mrc_alloc.allocate ~columns:4 curves in
  Alcotest.(check (list (pair string int)))
    "plateau growth" [ ("a", 2); ("b", 1) ] alloc

let test_mrc_alloc_invalid () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "no curves" true
    (raises (fun () -> Layout.Mrc_alloc.allocate ~columns:4 []));
  check_bool "more names than columns" true
    (raises (fun () ->
         Layout.Mrc_alloc.allocate ~columns:1
           [ ("a", [| 1; 0 |]); ("b", [| 1; 0 |]) ]));
  check_bool "curve without points" true
    (raises (fun () -> Layout.Mrc_alloc.allocate ~columns:2 [ ("a", [| 3 |]) ]))

let test_mrc_layout_prediction_exact () =
  (* The figure's headline claim: the curves predict the allocated layout's
     machine-measured miss count exactly. *)
  let r = Colcache.Experiments.Mrc_layout.run () in
  check_int "curves predict the machine" r.measured_misses r.predicted_misses;
  check_int "curves predict the equal split too" r.naive_measured_misses
    r.naive_predicted_misses;
  check_int "allocation spends every column" 4
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.allocation);
  check_bool "MRC allocation beats the curve-blind split" true
    (r.measured_misses < r.naive_measured_misses)

let suites =
  [
    ( "cache.stack_dist",
      [
        Alcotest.test_case "associativity one" `Quick test_associativity_one;
        Alcotest.test_case "single set" `Quick test_single_set;
        Alcotest.test_case "cold misses only" `Quick test_cold_misses_only;
        Alcotest.test_case "repeated line" `Quick test_repeated_line;
        Alcotest.test_case "overflow bucket" `Quick test_overflow_bucket;
        Alcotest.test_case "miss curve shape" `Quick test_miss_curve_shape;
        Alcotest.test_case "per-tag totals" `Quick test_per_tag_totals;
        Alcotest.test_case "corrupt kind byte rejected" `Quick
          test_corrupt_kind_rejected;
      ] );
    ( "core.sweep",
      [
        Alcotest.test_case "standard = machine replay" `Quick
          test_sweep_standard_exact;
        Alcotest.test_case "partitioned = machine replay" `Quick
          test_sweep_partitioned_exact;
        Alcotest.test_case "non-LRU rejected" `Quick test_sweep_rejects_non_lru;
        Alcotest.test_case "corrupt kind byte rejected" `Quick
          test_sweep_corrupt_kind_rejected;
      ] );
    ( "layout.mrc_alloc",
      [
        Alcotest.test_case "greedy allocation" `Quick test_mrc_alloc_greedy;
        Alcotest.test_case "plateau" `Quick test_mrc_alloc_plateau;
        Alcotest.test_case "invalid arguments" `Quick test_mrc_alloc_invalid;
        Alcotest.test_case "prediction is exact" `Quick
          test_mrc_layout_prediction_exact;
      ] );
  ]
