(* Tests for the machine model: timing, scratchpad regions, column pinning
   and CPI accounting. *)

module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Bitmask = Cache.Bitmask
module Sassoc = Cache.Sassoc
module System = Machine.System
module Timing = Machine.Timing
module Run_stats = Machine.Run_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* 2KB cache, 4 columns, 16B lines (the paper's Section 4.1 geometry). *)
let paper_cache = Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ()

let make_system ?(timing = Timing.default) () =
  System.create (System.config ~timing paper_cache)

let test_hit_cycle_accounting () =
  let sys = make_system () in
  (* first access: TLB miss + cache miss; second: both hit *)
  let c1 = System.access sys (Access.make 0) in
  let c2 = System.access sys (Access.make 0) in
  let t = Timing.default in
  check_int "miss cost" (t.Timing.tlb_miss_penalty + t.Timing.hit_cycles + t.Timing.miss_penalty) c1;
  check_int "hit cost" t.Timing.hit_cycles c2

let test_gap_counts_instructions () =
  let sys = make_system () in
  let trace = Trace.of_list [ Access.make ~gap:4 0; Access.make ~gap:2 0 ] in
  let r = System.run sys trace in
  check_int "instructions" 8 r.Run_stats.instructions;
  (* gaps cost one cycle per instruction *)
  check_bool "cycles include gaps" true (r.Run_stats.cycles >= 6)

let test_cpi_all_hits_is_one () =
  let sys = make_system () in
  (* warm one line and the TLB *)
  ignore (System.access sys (Access.make 0));
  let trace = Trace.of_list (List.init 100 (fun _ -> Access.make 0)) in
  let r = System.run sys trace in
  check_bool "CPI = 1 for pure hits"
    true
    (abs_float (Run_stats.cpi r -. 1.0) < 1e-9)

let test_scratchpad_region () =
  let sys = make_system () in
  System.add_scratchpad sys ~base:0x8000 ~size:512;
  check_bool "inside" true (System.in_scratchpad sys 0x8100);
  check_bool "outside" false (System.in_scratchpad sys 0x7FFF);
  check_int "bytes" 512 (System.scratchpad_bytes sys);
  let r = System.run sys (Trace.of_list [ Access.make 0x8000; Access.make 0x8000 ]) in
  check_int "both scratchpad" 2 r.Run_stats.scratchpad_accesses;
  check_int "no cache traffic" 0 r.Run_stats.cache.Cache.Stats.accesses;
  (* scratchpad accesses always cost scratchpad_cycles: fully predictable *)
  check_int "cycles" (2 * Timing.default.Timing.scratchpad_cycles) r.Run_stats.cycles

let test_scratchpad_overlap_rejected () =
  let sys = make_system () in
  System.add_scratchpad sys ~base:0 ~size:256;
  check_bool "overlap raises" true
    (try System.add_scratchpad sys ~base:128 ~size:256; false
     with Invalid_argument _ -> true)

let test_pin_region_behaves_like_scratchpad () =
  let sys = make_system () in
  let colsize = Sassoc.column_size_bytes paper_cache in
  System.pin_region sys ~base:0 ~size:colsize ~mask:(Bitmask.singleton 0)
    ~tint:(Vm.Tint.make "pinned");
  (* route all other traffic away from column 0 *)
  Vm.Mapping.remap_tint (System.mapping sys) Vm.Tint.default
    (Bitmask.of_list [ 1; 2; 3 ]);
  (* heavy interference elsewhere *)
  let noise =
    Memtrace.Synthetic.uniform_random ~seed:9 ~base:0x100000 ~span:65536
      ~count:5000 ()
  in
  ignore (System.run sys noise);
  (* the pinned region never misses *)
  let pinned_trace =
    Memtrace.Synthetic.sequential ~base:0 ~count:(colsize / 4) ~stride:4 ()
  in
  let r = System.run sys pinned_trace in
  check_int "zero misses in pinned region" 0 r.Run_stats.cache.Cache.Stats.misses

let test_pin_region_too_big_rejected () =
  let sys = make_system () in
  let colsize = Sassoc.column_size_bytes paper_cache in
  check_bool "oversized pin raises" true
    (try
       System.pin_region sys ~base:0 ~size:(colsize + 1)
         ~mask:(Bitmask.singleton 0) ~tint:(Vm.Tint.make "x");
       false
     with Invalid_argument _ -> true)

let test_run_returns_delta () =
  let sys = make_system () in
  let t = Trace.of_list [ Access.make 0 ] in
  ignore (System.run sys t);
  let r2 = System.run sys t in
  check_int "second run only one access" 1 r2.Run_stats.memory_accesses;
  check_int "second run no misses" 0 r2.Run_stats.cache.Cache.Stats.misses;
  let total = System.total sys in
  check_int "total accumulates" 2 total.Run_stats.memory_accesses

let test_writeback_penalty_charged () =
  let t0 = Timing.default in
  let sys = make_system () in
  (* dirty a line in set 0, then evict it with 4 reads to the same set *)
  ignore (System.access sys (Access.write 0));
  let evicting =
    (* set 0 recurs every sets*line = 32*16 = 512 bytes *)
    List.init 4 (fun i -> Access.make ((i + 1) * 512))
  in
  let r = System.run sys (Trace.of_list evicting) in
  check_int "one writeback" 1 r.Run_stats.cache.Cache.Stats.writebacks;
  let expected_min =
    (4 * (t0.Timing.hit_cycles + t0.Timing.miss_penalty)) + t0.Timing.writeback_penalty
  in
  check_bool "cycles include writeback penalty" true (r.Run_stats.cycles >= expected_min)

let test_partitioned_job_insensitive_to_interference () =
  (* The multitasking claim (Section 4.2) in miniature: job A's hit rate with
     its own columns is unaffected by job B's footprint. *)
  let run_with_interference mapped =
    let sys = make_system () in
    let mapping = System.mapping sys in
    if mapped then begin
      ignore
        (Vm.Mapping.retint_region mapping ~base:0 ~size:1024 (Vm.Tint.make "jobA"));
      Vm.Mapping.remap_tint mapping (Vm.Tint.make "jobA") (Bitmask.of_list [ 0; 1 ]);
      Vm.Mapping.remap_tint mapping Vm.Tint.default (Bitmask.of_list [ 2; 3 ])
    end;
    let job_a i = Access.make ~var:"A" (i * 16 mod 1024) in
    let job_b i = Access.make ~var:"B" (0x40000 + (i * 16)) in
    let misses_a = ref 0 in
    for i = 0 to 5000 do
      (match System.access sys (job_a i), () with _ -> ());
      ignore (System.access sys (job_b (4 * i)));
      ignore (System.access sys (job_b ((4 * i) + 1)));
      ignore (System.access sys (job_b ((4 * i) + 2)));
      ignore (System.access sys (job_b ((4 * i) + 3)))
    done;
    (* measure A's steady-state misses over a second pass *)
    let before = (System.total sys).Run_stats.cache.Cache.Stats.misses in
    for i = 0 to 1000 do
      ignore (System.access sys (job_a i));
      misses_a :=
        (System.total sys).Run_stats.cache.Cache.Stats.misses - before
    done;
    !misses_a
  in
  let shared = run_with_interference false in
  let mapped = run_with_interference true in
  check_bool
    (Printf.sprintf "mapped (%d misses) < shared (%d misses)" mapped shared)
    true (mapped < shared)

(* --- L2 --- *)

let l2_system () =
  let l2 = Sassoc.config ~line_size:16 ~size_bytes:16384 ~ways:4 () in
  System.create (System.config ~l2 paper_cache)

let test_l2_absorbs_l1_misses () =
  let t0 = Timing.default in
  let sys = l2_system () in
  (* fill line 0, evict it from L1 by walking its set, then return *)
  ignore (System.access sys (Access.make 0));
  for k = 1 to 4 do
    ignore (System.access sys (Access.make (k * 512)))
  done;
  let cost = System.access sys (Access.make 0) in
  check_int "L1 miss served from L2"
    (t0.Timing.hit_cycles + t0.Timing.l2_hit_cycles)
    cost;
  let total = System.total sys in
  check_bool "l2 hit counted" true (total.Run_stats.l2_hits >= 1)

let test_l2_miss_costs_memory () =
  let t0 = Timing.default in
  let sys = l2_system () in
  let cost = System.access sys (Access.make 0) in
  check_int "cold miss misses both levels"
    (t0.Timing.tlb_miss_penalty + t0.Timing.hit_cycles + t0.Timing.miss_penalty)
    cost;
  check_int "l2 miss counted" 1 (System.total sys).Run_stats.l2_misses

let test_no_l2_no_counters () =
  let sys = make_system () in
  ignore (System.access sys (Access.make 0));
  check_int "no l2 hits" 0 (System.total sys).Run_stats.l2_hits;
  check_int "no l2 misses" 0 (System.total sys).Run_stats.l2_misses

let test_l2_speeds_up_thrashing_workload () =
  (* a working set larger than L1 but within L2 *)
  let trace =
    Memtrace.Synthetic.repeat_walk ~base:0 ~len:256 ~stride:16 ~passes:10 ()
  in
  let without = System.run (make_system ()) trace in
  let with_l2 = System.run (l2_system ()) trace in
  check_bool "L2 saves cycles" true
    (with_l2.Run_stats.cycles < without.Run_stats.cycles)

(* --- stream prefetch --- *)

let streaming_setup () =
  let sys = make_system () in
  let mapping = System.mapping sys in
  let stream = Vm.Tint.make "stream" in
  (* a 1 KB streaming region in columns {0,1}; everything else in {2,3} *)
  ignore (Vm.Mapping.retint_region mapping ~base:0 ~size:1024 stream);
  Vm.Mapping.remap_tint mapping stream (Bitmask.of_list [ 0; 1 ]);
  Vm.Mapping.remap_tint mapping Vm.Tint.default (Bitmask.of_list [ 2; 3 ]);
  (sys, stream)

let test_prefetch_hides_sequential_misses () =
  let run ~streaming =
    let sys, stream = streaming_setup () in
    if streaming then System.set_streaming sys stream;
    let walk = Memtrace.Synthetic.sequential ~base:0 ~count:256 ~stride:4 () in
    let r = System.run sys walk in
    (r.Run_stats.cache.Cache.Stats.misses, r.Run_stats.prefetches, r.Run_stats.cycles)
  in
  let m0, p0, c0 = run ~streaming:false in
  let m1, p1, c1 = run ~streaming:true in
  check_int "no prefetches without marking" 0 p0;
  check_bool "prefetches issued" true (p1 > 50);
  (* 1 KB / 16 B = 64 lines: all cold without prefetch, almost none with *)
  check_int "misses without prefetch" 64 m0;
  check_bool (Printf.sprintf "misses drop (%d -> %d)" m0 m1) true (m1 <= 8);
  check_bool "cycles drop" true (c1 < c0)

let test_prefetch_stays_in_stream_columns () =
  let sys, stream = streaming_setup () in
  System.set_streaming sys stream;
  let walk = Memtrace.Synthetic.sequential ~base:0 ~count:256 ~stride:4 () in
  ignore (System.run sys walk);
  let cache = System.cache sys in
  check_int "column 2 untouched" 0 (List.length (Sassoc.lines_in_column cache 2));
  check_int "column 3 untouched" 0 (List.length (Sassoc.lines_in_column cache 3))

let test_prefetch_stops_at_region_boundary () =
  let sys, stream = streaming_setup () in
  System.set_streaming sys stream;
  (* touch the very last line of the streaming region: the next line lies in
     a different-mask page, so no prefetch may be issued for it *)
  let r =
    System.run sys (Trace.of_list [ Access.make (1024 - 16) ])
  in
  check_int "no cross-mask prefetch" 0 r.Run_stats.prefetches;
  check_bool "next region line not cached" true
    (Sassoc.probe (System.cache sys) 1024 = None)

let test_clear_streaming () =
  let sys, stream = streaming_setup () in
  System.set_streaming sys stream;
  check_bool "marked" true (System.is_streaming sys stream);
  System.clear_streaming sys stream;
  check_bool "cleared" false (System.is_streaming sys stream);
  let r = System.run sys (Trace.of_list [ Access.make 0 ]) in
  check_int "no prefetch after clear" 0 r.Run_stats.prefetches

(* --- Run_stats arithmetic --- *)

let test_run_stats_add_cpi () =
  let a =
    {
      (Run_stats.zero ~ways:4) with
      Run_stats.instructions = 10;
      cycles = 25;
      memory_accesses = 9;
      scratchpad_accesses = 4;
      tlb_hits = 7;
      tlb_misses = 1;
      l2_hits = 3;
      l2_misses = 2;
      prefetches = 5;
    }
  in
  let b =
    { a with Run_stats.instructions = 30; cycles = 35; l2_hits = 1; prefetches = 2 }
  in
  let s = Run_stats.add a b in
  check_int "instructions" 40 s.Run_stats.instructions;
  check_int "cycles" 60 s.Run_stats.cycles;
  check_int "memory accesses" 18 s.Run_stats.memory_accesses;
  check_int "scratchpad accesses" 8 s.Run_stats.scratchpad_accesses;
  check_int "tlb hits" 14 s.Run_stats.tlb_hits;
  check_int "tlb misses" 2 s.Run_stats.tlb_misses;
  check_int "l2 hits" 4 s.Run_stats.l2_hits;
  check_int "l2 misses" 4 s.Run_stats.l2_misses;
  check_int "prefetches" 7 s.Run_stats.prefetches;
  check_bool "cpi is cycles/instructions" true
    (abs_float (Run_stats.cpi s -. 1.5) < 1e-9);
  check_bool "cpi of zero is zero" true
    (Run_stats.cpi (Run_stats.zero ~ways:4) = 0.)

let test_scratchpad_overlap_variants () =
  let sys = make_system () in
  System.add_scratchpad sys ~base:0x1000 ~size:256;
  (* back-to-back regions do not overlap *)
  System.add_scratchpad sys ~base:0x1100 ~size:256;
  List.iter
    (fun (base, size) ->
      check_bool (Printf.sprintf "overlap [0x%x,+%d) rejected" base size) true
        (try
           System.add_scratchpad sys ~base ~size;
           false
         with Invalid_argument _ -> true))
    [ (0x1000, 256); (0x10FF, 2); (0xF00, 0x200); (0x1000, 1); (0x11FF, 1) ];
  check_int "rejected regions don't count" 512 (System.scratchpad_bytes sys)

(* --- batched replay vs the scalar reference ---
   [System.run_packed] promises byte-identical [Run_stats]; pin it across
   every machine feature the memoized fast path must respect. *)

let check_run_stats name (a : Run_stats.t) (b : Run_stats.t) =
  let f field proj = check_int (name ^ " " ^ field) (proj a) (proj b) in
  f "instructions" (fun r -> r.Run_stats.instructions);
  f "cycles" (fun r -> r.Run_stats.cycles);
  f "memory accesses" (fun r -> r.Run_stats.memory_accesses);
  f "scratchpad accesses" (fun r -> r.Run_stats.scratchpad_accesses);
  f "tlb hits" (fun r -> r.Run_stats.tlb_hits);
  f "tlb misses" (fun r -> r.Run_stats.tlb_misses);
  f "l2 hits" (fun r -> r.Run_stats.l2_hits);
  f "l2 misses" (fun r -> r.Run_stats.l2_misses);
  f "prefetches" (fun r -> r.Run_stats.prefetches);
  let c field proj =
    check_int
      (name ^ " cache " ^ field)
      (proj a.Run_stats.cache) (proj b.Run_stats.cache)
  in
  c "accesses" (fun (s : Cache.Stats.t) -> s.Cache.Stats.accesses);
  c "hits" (fun s -> s.Cache.Stats.hits);
  c "misses" (fun s -> s.Cache.Stats.misses);
  c "evictions" (fun s -> s.Cache.Stats.evictions);
  c "writebacks" (fun s -> s.Cache.Stats.writebacks);
  check_bool
    (name ^ " cache fills-per-way")
    true
    (a.Run_stats.cache.Cache.Stats.fills_per_way
    = b.Run_stats.cache.Cache.Stats.fills_per_way)

let mixed_trace =
  (* same-page runs, page-crossing writes, varying gaps *)
  Trace.of_list
    (List.concat_map
       (fun i ->
         [
           Access.make ~gap:(i mod 5) (i * 4 mod 2048);
           Access.make ~kind:Access.Write ~gap:1 (0x4000 + (i * 64 mod 4096));
           Access.make ~var:"hot" (i * 4 mod 2048);
         ])
       (List.init 400 Fun.id))

let both_drivers mk trace =
  let scalar = mk () in
  let batched = mk () in
  let rs = System.run scalar trace in
  let rb = System.run_packed batched (Memtrace.Packed.of_trace trace) in
  (rs, rb, scalar, batched)

let test_batched_matches_scalar_plain () =
  let rs, rb, s, b = both_drivers make_system mixed_trace in
  check_run_stats "plain delta" rs rb;
  check_run_stats "plain total" (System.total s) (System.total b)

let streaming_system () =
  let sys, stream = streaming_setup () in
  System.set_streaming sys stream;
  sys

let streaming_walk = Memtrace.Synthetic.sequential ~base:0 ~count:256 ~stride:4 ()

let test_batched_matches_scalar_streaming () =
  let rs, rb, _, _ = both_drivers streaming_system streaming_walk in
  check_bool "prefetches actually happened" true (rs.Run_stats.prefetches > 0);
  check_run_stats "streaming" rs rb

let regions_system () =
  let sys = make_system () in
  System.add_scratchpad sys ~base:0x8000 ~size:512;
  System.add_uncached sys ~base:0x9000 ~size:512;
  sys

let regions_trace =
  Trace.of_list
    (List.concat_map
       (fun i ->
         [
           Access.make ~gap:(i mod 3) (i * 8 mod 1024);
           Access.make ~kind:Access.Write (0x8000 + (i * 4 mod 512));
           Access.make (0x9000 + (i * 16 mod 512));
         ])
       (List.init 200 Fun.id))

let test_batched_matches_scalar_regions () =
  let rs, rb, _, _ = both_drivers regions_system regions_trace in
  check_bool "scratchpad actually hit" true
    (rs.Run_stats.scratchpad_accesses > 0);
  check_run_stats "regions" rs rb

let l2_thrash =
  (* 4 KB region: overflows the 2 KB L1, fits the 16 KB L2 *)
  Memtrace.Synthetic.repeat_walk ~base:0 ~len:256 ~stride:16 ~passes:8 ()

let test_batched_matches_scalar_l2 () =
  let rs, rb, _, _ = both_drivers l2_system l2_thrash in
  check_bool "L2 actually hit" true (rs.Run_stats.l2_hits > 0);
  check_run_stats "l2" rs rb

let frame_map_system () =
  let sys = make_system () in
  let fm = Vm.Frame_map.create ~page_size:256 in
  (* swap two distant pages so virtual and physical indices disagree *)
  Vm.Frame_map.map_page fm ~page:0 ~frame:16;
  Vm.Frame_map.map_page fm ~page:16 ~frame:0;
  System.set_frame_map sys fm;
  sys

(* frame-map pages finer than the machine's: no per-page offset *)
let fine_frame_map_system () =
  let sys = make_system () in
  let fm = Vm.Frame_map.create ~page_size:64 in
  Vm.Frame_map.map_page fm ~page:1 ~frame:70;
  Vm.Frame_map.map_page fm ~page:70 ~frame:1;
  System.set_frame_map sys fm;
  sys

let frame_map_trace =
  Trace.of_list
    (List.concat_map
       (fun i -> [ Access.make (i * 4 mod 256); Access.make (0x1000 + (i * 4 mod 256)) ])
       (List.init 150 Fun.id))

let test_batched_matches_scalar_frame_map () =
  let rs, rb, _, _ = both_drivers frame_map_system frame_map_trace in
  check_run_stats "frame map" rs rb;
  let rs, rb, _, _ = both_drivers fine_frame_map_system frame_map_trace in
  check_run_stats "fine frame map" rs rb

let test_batched_matches_scalar_retint () =
  (* reconfigure between replays: memoized state must not leak across *)
  let scalar = make_system () in
  let batched = make_system () in
  let hot = Vm.Tint.make "hot" in
  let reconfigure sys =
    ignore (Vm.Mapping.retint_region (System.mapping sys) ~base:0 ~size:1024 hot);
    Vm.Mapping.remap_tint (System.mapping sys) hot (Bitmask.of_list [ 0; 1 ]);
    Vm.Mapping.remap_tint (System.mapping sys) Vm.Tint.default
      (Bitmask.of_list [ 2; 3 ])
  in
  let t1 = Memtrace.Synthetic.sequential ~base:0 ~count:256 ~stride:8 () in
  let t2 = Memtrace.Synthetic.uniform_random ~seed:5 ~base:0 ~span:8192 ~count:800 () in
  check_run_stats "before retint" (System.run scalar t1)
    (System.run_packed batched (Memtrace.Packed.of_trace t1));
  reconfigure scalar;
  reconfigure batched;
  check_run_stats "after retint" (System.run scalar t2)
    (System.run_packed batched (Memtrace.Packed.of_trace t2));
  System.flush_tlb scalar;
  System.flush_tlb batched;
  System.flush_cache scalar;
  System.flush_cache batched;
  check_run_stats "after flushes" (System.run scalar t1)
    (System.run_packed batched (Memtrace.Packed.of_trace t1));
  check_run_stats "grand total" (System.total scalar) (System.total batched)

(* Every machine feature, for the tests that replay each through every
   packed wrapper. *)
let features =
  [
    ("plain", (fun () -> make_system ()), mixed_trace);
    ("streaming", streaming_system, streaming_walk);
    ("regions", regions_system, regions_trace);
    ("L2", l2_system, l2_thrash);
    ("frame map", frame_map_system, frame_map_trace);
    ("fine frame map", fine_frame_map_system, frame_map_trace);
  ]

(* The event core retimes a run and never recounts it: every field but the
   cycles and the event core's own telemetry matches the scalar path. *)
let functional_counts (r : Run_stats.t) =
  {
    r with
    Run_stats.cycles = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
  }

let test_events_match_scalar_counts () =
  List.iter
    (fun (name, mk, trace) ->
      let rs = System.run (mk ()) trace in
      let re =
        System.run_packed_events (mk ()) ~events:Machine.Event.default_config
          (Memtrace.Packed.of_trace trace)
      in
      check_run_stats (name ^ " under events") (functional_counts rs)
        (functional_counts re);
      check_bool (name ^ " retimed") true (re.Run_stats.cycles > 0))
    features

(* Windows of 5 accesses, 2 apart: the scalar side reads its cycle count as
   each window opens and closes, and the batched loop's derived count must
   give every window the same latency. *)
let test_request_windows_match_scalar () =
  List.iter
    (fun (name, mk, trace) ->
      let accesses = Array.of_list (Trace.to_list trace) in
      let n = Array.length accesses in
      let requests = Array.init (n / 7) (fun k -> (7 * k, (7 * k) + 5)) in
      let scalar = mk () in
      let cycles () = (System.total scalar).Run_stats.cycles in
      let expected =
        Array.map
          (fun (start, stop) ->
            for i = (if start = 0 then 0 else start - 2) to start - 1 do
              ignore (System.access scalar accesses.(i))
            done;
            let opened = cycles () in
            for i = start to stop - 1 do
              ignore (System.access scalar accesses.(i))
            done;
            cycles () - opened)
          requests
      in
      let batched =
        System.run_packed_requests (mk ())
          (Memtrace.Packed.of_list (Array.to_list (Array.sub accesses 0 (7 * (n / 7)))))
          ~requests
      in
      check_bool (name ^ " window latencies") true
        (Machine.Latency.equal batched.Run_stats.requests
           (Machine.Latency.of_samples expected)))
    features

(* A kind byte outside 0-2 (a corrupt mapped trace) is rejected the same way
   by every packed replay, naming the access, before the replay changes the
   machine: the access before the bad byte leaves no trace. *)
let test_corrupt_kind_rejected () =
  let packed () =
    let p = Memtrace.Packed.of_list [ Access.make 0; Access.make 16; Access.make 32 ] in
    Bigarray.Array1.set (Memtrace.Packed.raw_kinds p) 1 '\003';
    p
  in
  let events = Machine.Event.default_config in
  let requests = [| (0, 3) |] in
  let expected = Invalid_argument "Packed: access 1 has kind byte 3 (expected 0-2)" in
  List.iter
    (fun (name, run) ->
      let sys = make_system () in
      let before = System.total sys in
      Alcotest.check_raises name expected (fun () ->
          ignore (run sys (packed ())));
      Alcotest.(check bool) (name ^ ": counters untouched") true
        (System.total sys = before);
      Alcotest.(check bool) (name ^ ": cache untouched") true
        (Cache.Sassoc.probe (System.cache sys) 0 = None))
    [
      ("run_packed", System.run_packed);
      ("run_packed_requests", fun sys p -> System.run_packed_requests sys p ~requests);
      ("run_packed_events", fun sys p -> System.run_packed_events sys ~events p);
      ( "run_packed_requests_events",
        fun sys p -> System.run_packed_requests_events sys ~events p ~requests );
    ]

(* --- the batched and scalar paths interleaved on one system ---
   The batched loop writes the cache's stamps, clock and last displaced
   lines and the TLB's order itself, and later scalar accesses read them.
   One system takes a random mix of scalar accesses, packed replays, range
   slices and reconfigurations; its twin takes only scalar accesses. After
   every step the two must agree on every counter, every set's lines, the
   last written-back line, the TLB's order and the reconfiguration costs. *)

type feature = Plain | L2 | Stream | Scratchpad | Uncached | Frames | All

let interleave_features = [| Plain; L2; Stream; Scratchpad; Uncached; Frames; All |]
let interleave_policies = Cache.Policy.[| Lru; Fifo; Bit_plru; Random 5 |]

(* Case [case] covers policy [case mod 4], classification [case / 4 mod 2]
   and feature [case / 8 mod 7]; the rest is drawn from its own seed. *)
let interleave_case case =
  let rng = Random.State.make [| 0x5eed; case |] in
  let int n = Random.State.int rng n in
  let feature = interleave_features.(case / 8 mod 7) in
  let ways = 1 + int 5 in
  let cache =
    {
      Sassoc.line_size = 16;
      sets = 1 lsl (1 + int 3);
      ways;
      policy = interleave_policies.(case mod 4);
      classify = case / 4 mod 2 = 1;
    }
  in
  let page_size = [| 64; 128; 256 |].(int 3) in
  let span = 8 * page_size in
  let l2 =
    match feature with
    | L2 | All -> Some (Sassoc.config ~size_bytes:1024 ~ways:2 ())
    | Plain | Stream | Scratchpad | Uncached | Frames -> None
  in
  let cfg = System.config ~page_size ~tlb_entries:(1 + int 5) ?l2 cache in
  let tints = [| Vm.Tint.default; Vm.Tint.make "blue"; Vm.Tint.make "green" |] in
  let stream = tints.(int 2) in
  let has f = feature = f || feature = All in
  let mk () =
    let sys = System.create cfg in
    if has Stream then System.set_streaming sys stream;
    (* regions that cover parts of pages, so some pages mix region and
       cached accesses *)
    if has Scratchpad then
      System.add_scratchpad sys ~base:(page_size + 32) ~size:page_size;
    if has Uncached then
      System.add_uncached sys ~base:((4 * page_size) - 16) ~size:48;
    if has Frames then begin
      let fm = Vm.Frame_map.create ~page_size in
      Vm.Frame_map.map_page fm ~page:0 ~frame:6;
      Vm.Frame_map.map_page fm ~page:6 ~frame:0;
      System.set_frame_map sys fm
    end;
    sys
  in
  let mixed = mk () and scalar = mk () in
  let access () =
    let kind =
      match int 4 with 0 -> Access.Write | 1 -> Access.Ifetch | _ -> Access.Read
    in
    Access.make ~kind ~gap:(int 3) (int span)
  in
  let accesses () = List.init (1 + int 40) (fun _ -> access ()) in
  let on_both f =
    f mixed;
    f scalar
  in
  let check step what =
    let fail fmt =
      Alcotest.failf ("case %d, step %d (%s): " ^^ fmt) case step what
    in
    if System.total mixed <> System.total scalar then
      fail "totals differ:@ %a@ against@ %a" Run_stats.pp (System.total mixed)
        Run_stats.pp (System.total scalar);
    let c = System.cache mixed and c' = System.cache scalar in
    for set = 0 to cache.Sassoc.sets - 1 do
      if Sassoc.lines_in_set c set <> Sassoc.lines_in_set c' set then
        fail "set %d holds different lines" set
    done;
    if Sassoc.writeback_line c <> Sassoc.writeback_line c' then
      fail "last written-back line %d, against %d" (Sassoc.writeback_line c)
        (Sassoc.writeback_line c');
    let tlb sys = Vm.Tlb.resident_pages (Vm.Mapping.tlb (System.mapping sys)) in
    if tlb mixed <> tlb scalar then fail "TLB orders differ";
    if Vm.Mapping.cost (System.mapping mixed) <> Vm.Mapping.cost (System.mapping scalar)
    then fail "reconfiguration costs differ"
  in
  for step = 0 to 39 do
    let what =
      match int 10 with
      | 0 | 1 ->
          let a = access () in
          on_both (fun sys -> ignore (System.access sys a));
          "access"
      | 2 | 3 ->
          let l = accesses () in
          ignore (System.run_packed mixed (Memtrace.Packed.of_list l));
          List.iter (fun a -> ignore (System.access scalar a)) l;
          "run_packed"
      | 4 ->
          let l = accesses () in
          let n = List.length l in
          let requests = if n < 2 then [||] else [| (0, n / 2); (n / 2, n) |] in
          ignore
            (System.run_packed_requests mixed (Memtrace.Packed.of_list l) ~requests);
          List.iter (fun a -> ignore (System.access scalar a)) l;
          "run_packed_requests"
      | 5 | 6 ->
          let l = accesses () in
          let p = Memtrace.Packed.of_list l in
          let n = List.length l in
          let pos = ref 0 in
          while !pos < n do
            let stop = min n (!pos + 1 + int 8) in
            ignore (System.replay_range mixed p ~pos:!pos ~stop : int);
            pos := stop
          done;
          List.iter (fun a -> ignore (System.access scalar a)) l;
          "replay_range"
      | 7 ->
          if int 2 = 0 then begin
            on_both System.flush_tlb;
            "flush_tlb"
          end
          else begin
            on_both System.flush_cache;
            "flush_cache"
          end
      | 8 ->
          let base = int span and size = 1 + int (2 * page_size) in
          let tint = tints.(int 3) in
          on_both (fun sys ->
              ignore (Vm.Mapping.retint_region (System.mapping sys) ~base ~size tint));
          "retint"
      | _ ->
          let tint = tints.(int 3) in
          let bits = int (1 lsl ways) in
          let mask =
            if bits = 0 then Bitmask.singleton (int ways) else Bitmask.of_bits bits
          in
          on_both (fun sys -> Vm.Mapping.remap_tint (System.mapping sys) tint mask);
          "remap"
    in
    check step what
  done

let test_interleaved_paths () =
  for case = 0 to (4 * 2 * 7 * 4) - 1 do
    interleave_case case
  done

let suites =
  [
    ( "machine.system",
      [
        Alcotest.test_case "hit cycle accounting" `Quick test_hit_cycle_accounting;
        Alcotest.test_case "gap instructions" `Quick test_gap_counts_instructions;
        Alcotest.test_case "CPI of pure hits" `Quick test_cpi_all_hits_is_one;
        Alcotest.test_case "scratchpad region" `Quick test_scratchpad_region;
        Alcotest.test_case "scratchpad overlap" `Quick test_scratchpad_overlap_rejected;
        Alcotest.test_case "pin_region = scratchpad" `Quick test_pin_region_behaves_like_scratchpad;
        Alcotest.test_case "oversized pin rejected" `Quick test_pin_region_too_big_rejected;
        Alcotest.test_case "run returns delta" `Quick test_run_returns_delta;
        Alcotest.test_case "writeback penalty" `Quick test_writeback_penalty_charged;
        Alcotest.test_case "partition isolation" `Quick test_partitioned_job_insensitive_to_interference;
      ] );
    ( "machine.prefetch",
      [
        Alcotest.test_case "hides sequential misses" `Quick test_prefetch_hides_sequential_misses;
        Alcotest.test_case "stays in stream columns" `Quick test_prefetch_stays_in_stream_columns;
        Alcotest.test_case "stops at region boundary" `Quick test_prefetch_stops_at_region_boundary;
        Alcotest.test_case "clear" `Quick test_clear_streaming;
      ] );
    ( "machine.l2",
      [
        Alcotest.test_case "L2 absorbs L1 misses" `Quick test_l2_absorbs_l1_misses;
        Alcotest.test_case "L2 miss costs memory" `Quick test_l2_miss_costs_memory;
        Alcotest.test_case "no L2 no counters" `Quick test_no_l2_no_counters;
        Alcotest.test_case "L2 speeds up thrash" `Quick test_l2_speeds_up_thrashing_workload;
      ] );
    ( "machine.run_stats",
      [
        Alcotest.test_case "add and cpi" `Quick test_run_stats_add_cpi;
        Alcotest.test_case "scratchpad overlap variants" `Quick
          test_scratchpad_overlap_variants;
      ] );
    ( "machine.batched_replay",
      [
        Alcotest.test_case "plain" `Quick test_batched_matches_scalar_plain;
        Alcotest.test_case "streaming prefetch" `Quick
          test_batched_matches_scalar_streaming;
        Alcotest.test_case "scratchpad + uncached" `Quick
          test_batched_matches_scalar_regions;
        Alcotest.test_case "L2" `Quick test_batched_matches_scalar_l2;
        Alcotest.test_case "frame map" `Quick
          test_batched_matches_scalar_frame_map;
        Alcotest.test_case "retint between runs" `Quick
          test_batched_matches_scalar_retint;
        Alcotest.test_case "event counts on every feature" `Quick
          test_events_match_scalar_counts;
        Alcotest.test_case "request windows on every feature" `Quick
          test_request_windows_match_scalar;
        Alcotest.test_case "corrupt kind byte rejected" `Quick
          test_corrupt_kind_rejected;
      ] );
    ( "machine.interleave",
      [
        Alcotest.test_case "batched and scalar on one system" `Quick
          test_interleaved_paths;
      ] );
  ]
