(* Every simulated counter of a run, by name: what the output checks
   compare and what the per-workload digest hashes. *)

open Colcache
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency

let cache_fields (c : Cache.Stats.t) =
  [
    ("cache.accesses", c.accesses);
    ("cache.hits", c.hits);
    ("cache.misses", c.misses);
    ("cache.cold_misses", c.cold_misses);
    ("cache.capacity_misses", c.capacity_misses);
    ("cache.conflict_misses", c.conflict_misses);
    ("cache.evictions", c.evictions);
    ("cache.writebacks", c.writebacks);
  ]

let fills_fields (c : Cache.Stats.t) =
  Array.to_list
    (Array.mapi (fun w n -> (Printf.sprintf "cache.fills_way%d" w, n))
       c.fills_per_way)

(* The counts the event core must leave untouched: everything but cycles,
   the event-only MSHR/DRAM fields and the request latencies. *)
let functional (r : Run_stats.t) =
  [
    ("instructions", r.instructions);
    ("memory_accesses", r.memory_accesses);
    ("scratchpad_accesses", r.scratchpad_accesses);
    ("tlb_hits", r.tlb_hits);
    ("tlb_misses", r.tlb_misses);
    ("l2_hits", r.l2_hits);
    ("l2_misses", r.l2_misses);
    ("prefetches", r.prefetches);
  ]
  @ cache_fields r.cache @ fills_fields r.cache

(* Everything the closed-form sweep reproduces: all counters except the
   per-way fill counts, which stack distances cannot derive (the sweep
   reports them as zeros). Latencies are compared separately. *)
let sweepable (r : Run_stats.t) =
  [
    ("instructions", r.instructions);
    ("cycles", r.cycles);
    ("memory_accesses", r.memory_accesses);
    ("scratchpad_accesses", r.scratchpad_accesses);
    ("tlb_hits", r.tlb_hits);
    ("tlb_misses", r.tlb_misses);
    ("l2_hits", r.l2_hits);
    ("l2_misses", r.l2_misses);
    ("prefetches", r.prefetches);
    ("mshr_merges", r.mshr_merges);
    ("mshr_stalls", r.mshr_stalls);
    ("dram_row_hits", r.dram_row_hits);
    ("dram_row_conflicts", r.dram_row_conflicts);
  ]
  @ cache_fields r.cache

let all (r : Run_stats.t) =
  sweepable r @ fills_fields r.cache
  @ [
      ("requests.count", Latency.count r.requests);
      ("requests.sum", Latency.sum r.requests);
    ]

(* The first field whose values differ, as "name: a vs b". *)
let first_difference a b =
  let rec go = function
    | ((name, x) :: xs, (_, y) :: ys) ->
        if x <> y then Some (Printf.sprintf "%s: %d vs %d" name x y)
        else go (xs, ys)
    | [], [] -> None
    | _ -> Some "field lists differ in length"
  in
  go (a, b)

(* A stable rendering of one run: every counter plus the full latency
   histogram (its run-length encoding, via Marshal of the value). *)
let render_stats (r : Run_stats.t) =
  let b = Buffer.create 512 in
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) (all r);
  Printf.bprintf b "latency=%s;"
    (Digest.to_hex (Digest.string (Marshal.to_string r.requests [])));
  Buffer.contents b

let render_ints name a =
  name ^ "=" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ ";"

let render_floats name a =
  name ^ "="
  ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))
  ^ ";"
