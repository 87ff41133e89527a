(* The workloads' inputs and geometries. Everything here is a pure
   function of the seed, so a seed names one input set on any machine. *)

open Colcache
module System = Machine.System
module Packed = Memtrace.Packed
module Gen = Workloads.Gen

(* The replay geometry of zipf-replay and kv-events: a 16 KB 8-way cache
   with 16-byte lines, 256-byte pages and a 32-entry TLB. *)
let replay_config =
  System.config ~page_size:256 ~tlb_entries:32
    (Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024) ~ways:8 ())

(* The MRC geometry: the replay cache's 128 sets of 16-byte lines, curves
   for 1..8 ways. At `colcache mrc`'s default of 32 sets, a 0.1 sample
   rate selects a single set and the sampled curve is off by ~0.22, far
   outside [Check.Sample_diff.error_bound]; 128 sets keep the sampler in
   the regime that bound describes (11 selected sets). *)
let mrc_geometry = { Checks.line_size = 16; sets = 128; max_ways = 8 }

(* Zipf(0.99) over 2^18 items at the generator's 16-byte stride: a 4 MB
   footprint, 256x the replay cache and 512x the TLB reach. *)
let zipf_stream = Gen.Zipf { items = 1 lsl 18; theta = 0.99 }

(* Accesses of the Zipf traces, and requests of the KV trace (~7.6 accesses
   each): sized so a replay pass takes a few tenths of a second. *)
let zipf_n = 1_000_000
let kv_requests = 60_000

(* [colcache trace synth]: the generator streamed into a .pk file. *)
let synth_zipf ~seed ~n path =
  let w = Packed.Writer.create path ~length:n in
  Gen.iter_accesses ~seed ~n zipf_stream (fun ~kind ~gap addr ->
      Packed.Writer.emit w ~kind ~gap addr);
  Packed.Writer.close w

(* 2^16 keys, 4 value lines each: ~5.4 MB of heads, chain entries and
   values. Requests walk dependent hash chains; ~30% end in a write. *)
let kv ~seed ~requests =
  Gen.kv ~seed ~requests ~keys:(1 lsl 16) ~buckets:(1 lsl 14) ~value_lines:4 ()

(* Consecutive windows of [k] accesses, for replaying a trace that has no
   request structure of its own through the request paths. *)
let windows ~k n = Array.init ((n + k - 1) / k) (fun i -> (i * k, min n ((i + 1) * k)))

(* The three LZ77 jobs of Figure 5 and the TLB ablation (seeds and bases
   as in [Experiments.Fig5]); Figure 5 compresses 12 KiB per job. *)
let lz77_jobs ?(input_len = 12288) () =
  List.map
    (fun (name, seed, base) ->
      { Sched.Round_robin.name; trace = Workloads.Lz77.trace ~seed ~input_len ~base () })
    [ ("A", 1, 0x000000); ("B", 2, 0x100000); ("C", 3, 0x200000) ]

let job_accesses jobs =
  List.fold_left (fun acc j -> acc + Memtrace.Trace.length j.Sched.Round_robin.trace) 0 jobs

(* Figure 5's machine: 16 KB 8-way, 1 KB pages, 50-cycle misses. *)
let fig5_config =
  System.config
    ~timing:{ Machine.Timing.default with Machine.Timing.miss_penalty = 50 }
    ~page_size:1024
    (Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024) ~ways:8 ())

(* The MPEG pipeline of Figure 4, as [Experiments] builds it. *)
let mpeg_pipeline () =
  Pipeline.make ~init:Workloads.Mpeg.init
    ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
    Workloads.Mpeg.program

let concat (ps : Packed.t list) =
  let b = Packed.Builder.create () in
  List.iter (Packed.iter (Packed.Builder.add b)) ps;
  Packed.Builder.build b
