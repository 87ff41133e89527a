module Sassoc = Cache.Sassoc
module Stack_dist = Cache.Stack_dist
module Stats = Cache.Stats

type divergence = {
  step : int;
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

exception Found of string

let failf fmt = Format.kasprintf (fun s -> raise (Found s)) fmt

let accesses_of (sc : Scenario.t) =
  List.filter_map
    (function Scenario.Access a -> Some a | _ -> None)
    sc.Scenario.events

let run_scenario ?bug (sc : Scenario.t) =
  let cfg = sc.Scenario.cache in
  let w = cfg.Sassoc.ways in
  let accesses = accesses_of sc in
  let engine =
    Stack_dist.create ~line_size:cfg.Sassoc.line_size ~sets:cfg.Sassoc.sets
      ~max_ways:w ()
  in
  List.iter
    (fun (a : Memtrace.Access.t) ->
      (* The planted mrc bug lives here, on the stack-distance side: writes
         are demoted to reads, losing dirty bits and hence writebacks. *)
      let kind =
        if bug = Some Oracle.Mrc && a.kind = Memtrace.Access.Write then
          Memtrace.Access.Read
        else a.kind
      in
      Stack_dist.access engine ~kind a.addr)
    accesses;
  try
    (* Internal conservation first: every access is cold, overflowed or at an
       exact depth, and the curve's endpoints are pinned. *)
    let hist_total = Array.fold_left ( + ) 0 (Stack_dist.histogram engine) in
    if
      Stack_dist.cold_misses engine + Stack_dist.overflows engine + hist_total
      <> Stack_dist.accesses engine
    then
      failf "histogram not conserved: cold %d + overflow %d + sum %d <> %d"
        (Stack_dist.cold_misses engine)
        (Stack_dist.overflows engine)
        hist_total
        (Stack_dist.accesses engine);
    (* The cold/overflow split: every distinct line is cold exactly once
       (nothing is preloaded), counted here by a list with no PRNG draw. *)
    let distinct =
      List.length
        (List.sort_uniq compare
           (List.map
              (fun (a : Memtrace.Access.t) -> a.addr / cfg.Sassoc.line_size)
              accesses))
    in
    if Stack_dist.cold_misses engine <> distinct then
      failf "cold misses %d, but the scenario touches %d distinct lines"
        (Stack_dist.cold_misses engine)
        distinct;
    if Stack_dist.distinct_lines engine <> distinct then
      failf "distinct_lines %d, but the scenario touches %d distinct lines"
        (Stack_dist.distinct_lines engine)
        distinct;
    let curve = Stack_dist.miss_curve engine in
    if curve.(0) <> Stack_dist.accesses engine then
      failf "miss_curve.(0) = %d, expected the access count %d" curve.(0)
        (Stack_dist.accesses engine);
    for ways = 1 to w do
      let exact =
        Sassoc.create
          { cfg with Sassoc.ways; policy = Cache.Policy.Lru; classify = false }
      in
      List.iter
        (fun (a : Memtrace.Access.t) ->
          ignore (Sassoc.access exact ~kind:a.kind a.addr))
        accesses;
      let r = Sassoc.stats exact in
      let e = Stack_dist.stats engine ~ways in
      let pair name a b =
        if a <> b then
          failf "%d-way %s differ: exact %d, stack-distance %d" ways name a b
      in
      pair "accesses" r.Stats.accesses e.Stats.accesses;
      pair "hits" r.Stats.hits e.Stats.hits;
      pair "misses" r.Stats.misses e.Stats.misses;
      pair "evictions" r.Stats.evictions e.Stats.evictions;
      pair "writebacks" r.Stats.writebacks e.Stats.writebacks;
      if curve.(ways) <> e.Stats.misses then
        failf "miss_curve.(%d) = %d disagrees with stats misses %d" ways
          curve.(ways) e.Stats.misses
    done;
    Agree
  with Found detail -> Diverge { step = List.length sc.Scenario.events; detail }
