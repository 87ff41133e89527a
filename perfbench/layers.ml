(* The traced run's isolated layer passes. Each times one call, or one
   loop of calls, into a single colcache module over the workload's own
   trace and geometry, starting from empty simulated state, and records it
   as a span. Work that the workload's timed phase does inside another call
   (the TLB, the set probe and the column scan inside [run_packed]) is
   re-run here on its own. *)

open Colcache
module System = Machine.System
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency
module Stack_dist = Cache.Stack_dist
module Sassoc = Cache.Sassoc
module Packed = Memtrace.Packed

type input = {
  trace : Packed.t;  (** the workload's trace *)
  config : System.config;  (** the geometry the workload replays it on *)
  requests : (int * int) array;  (** its request windows *)
}

type measured = { seconds : float; words : float }

(* Time [f] and count the minor-heap words it allocates, inside a span. *)
let measure name f =
  Spans.span name (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      (r, { seconds = t1 -. t0; words = w1 -. w0 }))

let per n x = x /. float_of_int (max 1 n)
let ns n m = per n (m.seconds *. 1e9)

let write_file p path =
  let n = Packed.length p in
  let addrs = Packed.raw_addrs p and gaps = Packed.raw_gaps p in
  let kinds = Packed.raw_kinds p and tags = Packed.raw_tags p in
  let vars = Array.map Option.some (Packed.var_table p) in
  let w = Packed.Writer.create path ~length:n in
  for i = 0 to n - 1 do
    let tag = Bigarray.Array1.get tags i in
    Packed.Writer.emit w
      ~kind:(Packed.kind_of_code (Char.code (Bigarray.Array1.get kinds i)))
      ?var:(if tag < 0 then None else vars.(tag))
      ~gap:(Bigarray.Array1.get gaps i)
      (Bigarray.Array1.get addrs i)
  done;
  Packed.Writer.close w

let scan p =
  let n = Packed.length p in
  let addrs = Packed.raw_addrs p and gaps = Packed.raw_gaps p in
  let kinds = Packed.raw_kinds p in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum :=
      !sum + Bigarray.Array1.get addrs i + Bigarray.Array1.get gaps i
      + Char.code (Bigarray.Array1.get kinds i)
  done;
  !sum

let tlb_pass (config : System.config) p =
  let page_table = Vm.Page_table.create ~page_size:config.page_size () in
  let tlb = Vm.Tlb.create ~entries:config.tlb_entries ~page_table in
  let page = Vm.Page_table.page_of_addr page_table in
  let addrs = Packed.raw_addrs p in
  for i = 0 to Packed.length p - 1 do
    ignore (Vm.Tlb.lookup_page_quick tlb (page (Bigarray.Array1.get addrs i)))
  done;
  Vm.Tlb.misses tlb

(* Returns (misses, writebacks) from [access_coded]'s outcome bits. *)
let sassoc_pass (config : System.config) policy p =
  let c = Sassoc.create { config.cache with Sassoc.policy } in
  let addrs = Packed.raw_addrs p and kinds = Packed.raw_kinds p in
  let misses = ref 0 and writebacks = ref 0 in
  for i = 0 to Packed.length p - 1 do
    let kind = Packed.kind_of_code (Char.code (Bigarray.Array1.get kinds i)) in
    let r = Sassoc.access_coded c ~kind (Bigarray.Array1.get addrs i) in
    misses := !misses + (r land 1);
    writebacks := !writebacks + ((r lsr 1) land 1)
  done;
  (!misses, !writebacks)

let window_of n =
  let epochs = 8 in
  (epochs * max 1 (n / 4 / epochs), epochs)

(* Every per-layer metric, in BENCHMARK.json order, as (name, value, unit).
   [seed] seeds the generator passes; [scratch] is a file path the write
   pass may use. *)
let run ~seed ~scratch (x : input) =
  let p = x.trace in
  let n = Packed.length p in
  let cfg = x.config in
  let geo = cfg.System.cache in
  let sets = geo.Sassoc.sets and line_size = geo.Sassoc.line_size in
  let ways = geo.Sassoc.ways in
  let (), write = measure "memtrace.Writer" (fun () -> write_file p scratch) in
  let mapped, map = measure "memtrace.map_file" (fun () -> Packed.map_file scratch) in
  let _, scan_m = measure "memtrace.scan" (fun () -> scan mapped) in
  let (), zipf =
    measure "workloads.Gen.iter_accesses" (fun () ->
        Workloads.Gen.iter_accesses ~seed ~n:Inputs.zipf_n Inputs.zipf_stream
          (fun ~kind:_ ~gap:_ _ -> ()))
  in
  let kv, kv_m =
    measure "workloads.Gen.kv" (fun () -> Inputs.kv ~seed ~requests:Inputs.kv_requests)
  in
  let kv_n = Packed.length kv.Workloads.Gen.packed in
  let jobs, lz77 = measure "workloads.Lz77.trace" Inputs.lz77_jobs in
  let lz77_n = Inputs.job_accesses jobs in
  let tlb_misses, tlb = measure "vm.Tlb.lookup_page_quick" (fun () -> tlb_pass cfg mapped) in
  let (misses, writebacks), sassoc =
    measure "cache.Sassoc.access_coded" (fun () -> sassoc_pass cfg Cache.Policy.Lru mapped)
  in
  let policy kind =
    snd (measure ("cache.Sassoc.access_coded." ^ Cache.Policy.kind_to_string kind)
           (fun () -> sassoc_pass cfg kind mapped))
  in
  let fifo = policy Cache.Policy.Fifo in
  let plru = policy Cache.Policy.Bit_plru in
  let random = policy (Cache.Policy.Random 1) in
  let exact, sd =
    measure "cache.Stack_dist.access_packed" (fun () ->
        let e = Stack_dist.create ~line_size ~sets ~max_ways:ways () in
        Stack_dist.access_packed e mapped;
        e)
  in
  let sampled, sampled_m =
    measure "cache.Stack_dist.Sampled.access_packed" (fun () ->
        let e =
          Stack_dist.Sampled.create ~seed:0 ~rate:0.1 ~line_size ~sets ~max_ways:ways ()
        in
        Stack_dist.Sampled.access_packed e mapped;
        e)
  in
  let window, epochs = window_of n in
  let (), windowed =
    measure "cache.Stack_dist.Windowed.observe_packed" (fun () ->
        let e =
          Stack_dist.Windowed.create ~window ~epochs ~line_size ~sets ~max_ways:ways ()
        in
        Stack_dist.Windowed.observe_packed e mapped)
  in
  let jobs_n = Checks.jobs_for ~sets in
  let shard_accesses = ref [] in
  let _, sharded =
    measure "cache.Stack_dist.of_packed_parallel" (fun () ->
        Stack_dist.of_packed_parallel ~jobs:jobs_n
          ~on_shard:(fun ~shard:_ ~accesses -> shard_accesses := accesses :: !shard_accesses)
          ~line_size ~sets ~max_ways:ways mapped)
  in
  let balance =
    let l = !shard_accesses in
    let total = List.fold_left ( + ) 0 l in
    let mean = per (List.length l) (float_of_int total) in
    float_of_int (List.fold_left max 0 l) /. Float.max 1. mean
  in
  let _, replay =
    measure "machine.System.run_packed" (fun () -> System.run_packed (System.create cfg) mapped)
  in
  let _, requests =
    measure "machine.System.run_packed_requests" (fun () ->
        System.run_packed_requests (System.create cfg) mapped ~requests:x.requests)
  in
  let ev, events =
    measure "machine.System.run_packed_requests_events" (fun () ->
        System.run_packed_requests_events (System.create cfg)
          ~events:Machine.Event.default_config mapped ~requests:x.requests)
  in
  let ev_misses = ev.Run_stats.cache.Cache.Stats.misses in
  let outcome, rr =
    measure "sched.Round_robin.run" (fun () ->
        Sched.Round_robin.run ~system:(System.create Inputs.fig5_config) ~quantum:4096
          jobs)
  in
  let pipeline = Inputs.mpeg_pipeline () in
  let routines = Workloads.Mpeg.routines in
  let ir_n, ir =
    measure "ir.Pipeline.packed_trace_of" (fun () ->
        List.fold_left
          (fun acc proc -> acc + Packed.length (Pipeline.packed_trace_of pipeline ~proc))
          0 routines)
  in
  List.iter (fun proc -> ignore (Pipeline.trace_of pipeline ~proc)) routines;
  let methods = [ Pipeline.Profile_based; Pipeline.Program_analysis ] in
  let (), summaries =
    measure "profile.Pipeline.summaries" (fun () ->
        List.iter
          (fun proc ->
            List.iter (fun meth -> ignore (Pipeline.summaries pipeline ~proc ~meth)) methods)
          routines)
  in
  let (), partition =
    measure "layout.Pipeline.partition" (fun () ->
        List.iter
          (fun proc ->
            for scratchpad_columns = 0 to Pipeline.columns pipeline do
              ignore
                (Pipeline.partition pipeline ~proc ~scratchpad_columns
                   ~meth:Pipeline.Profile_based)
            done)
          routines)
  in
  let (), sweep =
    measure "core.Pipeline.run_standard" (fun () ->
        List.iter (fun proc -> ignore (Pipeline.run_standard pipeline ~proc)) routines)
  in
  let (), best_split =
    measure "core.Pipeline.best_split" (fun () ->
        List.iter
          (fun proc ->
            ignore (Pipeline.best_split pipeline ~proc ~meth:Pipeline.Profile_based))
          routines)
  in
  let ratio a b = per b (float_of_int a) in
  [
    ("memtrace.map_s", map.seconds, "s");
    ("memtrace.scan_ns_per_access", ns n scan_m, "ns/access");
    ("memtrace.write_ns_per_access", ns n write, "ns/access");
    ("workloads.zipf_ns_per_access", ns Inputs.zipf_n zipf, "ns/access");
    ("workloads.kv_ns_per_access", ns kv_n kv_m, "ns/access");
    ("workloads.lz77_ns_per_access", ns lz77_n lz77, "ns/access");
    ("vm.tlb_ns_per_lookup", ns n tlb, "ns/lookup");
    ("vm.tlb_miss_ratio", ratio tlb_misses n, "ratio");
    ("vm.tlb_alloc_words_per_lookup", per n tlb.words, "words/lookup");
    ("cache.sassoc_ns_per_access", ns n sassoc, "ns/access");
    ("cache.sassoc_miss_ratio", ratio misses n, "ratio");
    ("cache.sassoc_writeback_ratio", ratio writebacks n, "ratio");
    ("cache.sassoc_alloc_words_per_access", per n sassoc.words, "words/access");
    ("cache.sassoc_fifo_ns_per_access", ns n fifo, "ns/access");
    ("cache.sassoc_plru_ns_per_access", ns n plru, "ns/access");
    ("cache.sassoc_random_ns_per_access", ns n random, "ns/access");
    ("cache.stack_dist_ns_per_access", ns n sd, "ns/access");
    ("cache.stack_dist_alloc_words_per_access", per n sd.words, "words/access");
    ("cache.stack_dist_sampled_ns_per_access", ns n sampled_m, "ns/access");
    ( "cache.stack_dist_sampled_fraction",
      ratio (Stack_dist.Sampled.sampled_accesses sampled) n,
      "ratio" );
    ( "cache.stack_dist_sampled_abs_err",
      Checks.mean_abs_error ~est:(Stack_dist.Sampled.mrc_est sampled)
        ~exact:(Stack_dist.mrc exact) ~ways,
      "ratio" );
    ("cache.stack_dist_windowed_ns_per_access", ns n windowed, "ns/access");
    ("cache.stack_dist_sharded_ns_per_access", ns n sharded, "ns/access");
    ("cache.stack_dist_shard_balance", balance, "ratio");
    ("machine.replay_ns_per_access", ns n replay, "ns/access");
    ("machine.replay_alloc_words_per_access", per n replay.words, "words/access");
    ( "machine.replay_self_ns_per_access",
      per n ((replay.seconds -. scan_m.seconds -. tlb.seconds -. sassoc.seconds) *. 1e9),
      "ns/access" );
    ("machine.requests_ns_per_access", ns n requests, "ns/access");
    ("machine.requests_alloc_words_per_access", per n requests.words, "words/access");
    ("machine.events_ns_per_access", ns n events, "ns/access");
    ("machine.events_alloc_words_per_access", per n events.words, "words/access");
    ( "machine.events_extra_ns_per_miss",
      per ev_misses ((events.seconds -. requests.seconds) *. 1e9),
      "ns/miss" );
    ("machine.mshr_merge_ratio", ratio ev.Run_stats.mshr_merges ev_misses, "ratio");
    ("machine.mshr_stall_ratio", ratio ev.Run_stats.mshr_stalls ev_misses, "ratio");
    ("machine.dram_row_hit_ratio", ratio ev.Run_stats.dram_row_hits ev_misses, "ratio");
    ("machine.events_p99_cycles", float_of_int (Latency.p99 ev.Run_stats.requests), "cycles");
    ("machine.events_requests", float_of_int (Latency.count ev.Run_stats.requests), "count");
    ("sched.round_robin_ns_per_access", ns lz77_n rr, "ns/access");
    ("sched.round_robin_alloc_words_per_access", per lz77_n rr.words, "words/access");
    ("sched.switches", float_of_int outcome.Sched.Round_robin.switches, "count");
    ("ir.interp_ns_per_access", ns ir_n ir, "ns/access");
    ("profile.summaries_s", summaries.seconds, "s");
    ("layout.partition_s", partition.seconds, "s");
    ("core.sweep_ns_per_access", ns ir_n sweep, "ns/access");
    ("core.best_split_s", best_split.seconds, "s");
  ]
