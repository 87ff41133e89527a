module System = Machine.System
module Run_stats = Machine.Run_stats
module Sassoc = Cache.Sassoc
module Stats = Cache.Stats
module Access = Memtrace.Access

type divergence = {
  step : int;
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

exception Found of string

let failf fmt = Format.kasprintf (fun s -> raise (Found s)) fmt

let compare_stats (r : Stats.t) (b : Stats.t) =
  let pair name a c =
    if a <> c then failf "cache %s differ: in-order %d, event %d" name a c
  in
  pair "accesses" r.accesses b.accesses;
  pair "hits" r.hits b.hits;
  pair "misses" r.misses b.misses;
  pair "cold misses" r.cold_misses b.cold_misses;
  pair "capacity misses" r.capacity_misses b.capacity_misses;
  pair "conflict misses" r.conflict_misses b.conflict_misses;
  pair "evictions" r.evictions b.evictions;
  pair "writebacks" r.writebacks b.writebacks;
  if r.fills_per_way <> b.fills_per_way then
    failf "cache fills-per-way differ: in-order [%s], event [%s]"
      (String.concat ";"
         (Array.to_list (Array.map string_of_int r.fills_per_way)))
      (String.concat ";"
         (Array.to_list (Array.map string_of_int b.fills_per_way)))

(* Everything except [cycles] and the event-only MSHR/DRAM fields: the
   event core is free to retime the run, never to recount it. *)
let compare_counts (r : Run_stats.t) (b : Run_stats.t) =
  let pair name a c =
    if a <> c then failf "%s differ: in-order %d, event %d" name a c
  in
  pair "instructions" r.instructions b.instructions;
  pair "memory accesses" r.memory_accesses b.memory_accesses;
  pair "scratchpad accesses" r.scratchpad_accesses b.scratchpad_accesses;
  pair "TLB hits" r.tlb_hits b.tlb_hits;
  pair "TLB misses" r.tlb_misses b.tlb_misses;
  pair "L2 hits" r.l2_hits b.l2_hits;
  pair "L2 misses" r.l2_misses b.l2_misses;
  pair "prefetches" r.prefetches b.prefetches;
  compare_stats r.cache b.cache

(* Event-core geometry for the differential: small MLP and DRAM shapes
   derived from the scenario so both structural stalls and genuine overlap
   occur. Deterministic in the scenario — the soak must not draw RNG here
   (stream isolation). *)
let event_config (sc : Scenario.t) =
  let mlp = 1 + (sc.tlb_entries mod 4) in
  let dram =
    Machine.Dram.config
      ~banks:(match sc.cache.Sassoc.sets with 1 -> 1 | s -> min s 4)
      ~row_bytes:(max sc.cache.Sassoc.line_size (sc.page_size / 2))
      ~queue_depth:(1 + (sc.page_size mod 7))
      ()
  in
  Machine.Event.config ~mlp ~dram ()

let run_scenario ?bug (sc : Scenario.t) =
  let cfg =
    System.config ~page_size:sc.page_size ~tlb_entries:sc.tlb_entries sc.cache
  in
  (* Two identical machines: [inorder] replays batches one access at a
     time through the scalar [System.access] (the differential oracle,
     independent of the batched loop under test); [event] replays the same
     batches through [System.run_packed_events]. Reconfigurations land on
     both sides in scenario order; after every batch all functional counts
     must agree — timing is free to differ, so [cycles] is the one field
     never compared. *)
  let inorder = System.create cfg in
  let event = System.create cfg in
  let events = event_config sc in
  let inject_merge_bug = bug = Some Oracle.Event in
  let pending = ref [] in
  let step = ref 0 in
  let flush () =
    match !pending with
    | [] -> ()
    | evs ->
        let evs = List.rev evs in
        List.iter (fun a -> ignore (System.access inorder a : int)) evs;
        let packed = Memtrace.Packed.of_list evs in
        ignore
          (System.run_packed_events ~inject_merge_bug event ~events packed);
        pending := [];
        compare_counts (System.total inorder) (System.total event)
  in
  let apply event_ =
    match (event_ : Scenario.event) with
    | Scenario.Access a -> pending := a :: !pending
    | Scenario.Retint { base; size; tint } ->
        flush ();
        let tint = Vm.Tint.make tint in
        let ri =
          Vm.Mapping.retint_region (System.mapping inorder) ~base ~size tint
        in
        let re =
          Vm.Mapping.retint_region (System.mapping event) ~base ~size tint
        in
        if ri <> re then
          failf "retint page count differs: in-order %d, event %d" ri re
    | Scenario.Remap { tint; mask } ->
        flush ();
        let tint = Vm.Tint.make tint in
        Vm.Mapping.remap_tint (System.mapping inorder) tint mask;
        Vm.Mapping.remap_tint (System.mapping event) tint mask
    | Scenario.Flush_tlb ->
        flush ();
        System.flush_tlb inorder;
        System.flush_tlb event
    | Scenario.Flush_cache ->
        flush ();
        System.flush_cache inorder;
        System.flush_cache event
  in
  try
    List.iter
      (fun e ->
        apply e;
        incr step)
      sc.events;
    flush ();
    compare_counts (System.total inorder) (System.total event);
    for set = 0 to cfg.System.cache.Sassoc.sets - 1 do
      let r = Sassoc.lines_in_set (System.cache inorder) set in
      let b = Sassoc.lines_in_set (System.cache event) set in
      if r <> b then
        failf
          "final contents of set %d differ: in-order has %d lines, event %d"
          set (List.length r) (List.length b)
    done;
    let rc = Vm.Mapping.cost (System.mapping inorder) in
    let bc = Vm.Mapping.cost (System.mapping event) in
    if rc <> bc then
      failf "reconfiguration costs differ: in-order (%a), event (%a)"
        Vm.Mapping.pp_cost rc Vm.Mapping.pp_cost bc;
    Agree
  with Found detail -> Diverge { step = !step; detail }
