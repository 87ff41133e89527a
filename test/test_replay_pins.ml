(* Pins of the packed replays' totals on the benchmark traces: a change to
   the batched replay loop must leave every counter of these runs — cache,
   TLB, L2, event core and request latencies — byte-identical. Each pin is
   the MD5 of the run's statistics in full, recorded before the loop last
   changed; a change that alters a figure on purpose updates its pin. *)

module Packed = Memtrace.Packed
module System = Machine.System
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency

(* Every field of a run, the request distribution included. *)
let fingerprint (r : Run_stats.t) =
  let lat = r.Run_stats.requests in
  let requests =
    if Latency.is_empty lat then ""
    else
      Printf.sprintf "%d %d %d" (Latency.count lat) (Latency.sum lat)
        (Latency.max_value lat)
  in
  Format.asprintf "%a|mshr %d %d|dram %d %d|fills %s|%s" Run_stats.pp r
    r.Run_stats.mshr_merges r.Run_stats.mshr_stalls r.Run_stats.dram_row_hits
    r.Run_stats.dram_row_conflicts
    (String.concat ","
       (Array.to_list
          (Array.map string_of_int r.Run_stats.cache.Cache.Stats.fills_per_way)))
    requests
  |> Digest.string |> Digest.to_hex

(* zipf-replay's and kv-events' geometry: 16 KB 8-way, 256-byte pages, a
   32-entry TLB. *)
let replay_config () =
  System.config ~page_size:256 ~tlb_entries:32
    (Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024) ~ways:8 ())

(* Figure 5's machine: 1 KB pages, 50-cycle misses. *)
let fig5_config () =
  System.config
    ~timing:{ Machine.Timing.default with Machine.Timing.miss_penalty = 50 }
    ~page_size:1024
    (Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024) ~ways:8 ())

(* `colcache trace synth --dist zipf -n 1000000 --items 262144 --seed 1` *)
let zipf =
  lazy
    (let n = 1_000_000 in
     let b = Packed.Builder.create ~initial_capacity:n () in
     Workloads.Gen.iter_accesses ~seed:1 ~n
       (Workloads.Gen.Zipf { items = 1 lsl 18; theta = 0.99 })
       (fun ~kind ~gap addr -> Packed.Builder.emit b ~kind ~gap addr);
     Packed.Builder.build b)

let kv =
  lazy
    (Workloads.Gen.kv ~seed:1 ~requests:60_000 ~keys:(1 lsl 16)
       ~buckets:(1 lsl 14) ~value_lines:4 ())

(* Figure 5's three 12 KiB LZ77 jobs, 1 MB apart. *)
let lz77_jobs =
  lazy
    (List.map
       (fun (name, seed, base) ->
         {
           Sched.Round_robin.name;
           trace = Workloads.Lz77.trace ~seed ~input_len:12288 ~base ();
         })
       [ ("A", 1, 0x000000); ("B", 2, 0x100000); ("C", 3, 0x200000) ])

let events = Machine.Event.default_config

let pins =
  [
    ( "zipf run_packed",
      "9ff7b68c4eb9d9c86eaad67efb75b53e",
      fun () ->
        System.run_packed (System.create (replay_config ())) (Lazy.force zipf) );
    ( "kv run_packed",
      "4f54b3c38f29367f46293a89c268f200",
      fun () ->
        System.run_packed (System.create (replay_config ()))
          (Lazy.force kv).Workloads.Gen.packed );
    ( "kv run_packed_requests",
      "493d4f00c1241dd5f73e2b2ce2a2332f",
      fun () ->
        let kv = Lazy.force kv in
        System.run_packed_requests (System.create (replay_config ()))
          kv.Workloads.Gen.packed ~requests:kv.Workloads.Gen.requests );
    ( "kv run_packed_events",
      "ddc067c7031c30b475806d4c6fac878e",
      fun () ->
        System.run_packed_events (System.create (replay_config ())) ~events
          (Lazy.force kv).Workloads.Gen.packed );
    ( "kv run_packed_requests_events",
      "2c387bdb4095df489fecaa51abc1af01",
      fun () ->
        let kv = Lazy.force kv in
        System.run_packed_requests_events (System.create (replay_config ()))
          ~events kv.Workloads.Gen.packed ~requests:kv.Workloads.Gen.requests
    );
    ( "LZ77 jobs run_packed",
      "726aca7d427cbfcfbc3a8c1cb1616318",
      fun () ->
        (* the three jobs back to back on one machine *)
        let system = System.create (fig5_config ()) in
        List.iter
          (fun j ->
            ignore
              (System.run_packed system
                 (Packed.of_trace j.Sched.Round_robin.trace)))
          (Lazy.force lz77_jobs);
        System.total system );
    ( "LZ77 jobs, quantum 16",
      "d5e318b920e91c8a8105bdb07f28cecf",
      fun () ->
        let system = System.create (fig5_config ()) in
        ignore
          (Sched.Round_robin.run ~system ~quantum:16 (Lazy.force lz77_jobs));
        System.total system );
    ( "LZ77 jobs, TLB flushed",
      "695e3c538ed9e813840f8f7a7f26c709",
      fun () ->
        (* the TLB ablation's untagged TLB: 8 entries, flushed per switch *)
        let system =
          System.create { (fig5_config ()) with System.tlb_entries = 8 }
        in
        ignore
          (Sched.Round_robin.run ~flush_tlb_on_switch:true ~system ~quantum:64
             (Lazy.force lz77_jobs));
        System.total system );
  ]

let suites =
  [
    ( "machine.replay_pins",
      List.map
        (fun (name, digest, run) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check string) name digest (fingerprint (run ()))))
        pins );
  ]
