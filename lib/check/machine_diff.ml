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
    if a <> c then failf "cache %s differ: scalar %d, batched %d" name a c
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
    failf "cache fills-per-way differ: scalar [%s], batched [%s]"
      (String.concat ";"
         (Array.to_list (Array.map string_of_int r.fills_per_way)))
      (String.concat ";"
         (Array.to_list (Array.map string_of_int b.fills_per_way)))

let compare_totals (r : Run_stats.t) (b : Run_stats.t) =
  let pair name a c =
    if a <> c then failf "%s differ: scalar %d, batched %d" name a c
  in
  pair "instructions" r.instructions b.instructions;
  pair "cycles" r.cycles b.cycles;
  pair "memory accesses" r.memory_accesses b.memory_accesses;
  pair "scratchpad accesses" r.scratchpad_accesses b.scratchpad_accesses;
  pair "TLB hits" r.tlb_hits b.tlb_hits;
  pair "TLB misses" r.tlb_misses b.tlb_misses;
  pair "L2 hits" r.l2_hits b.l2_hits;
  pair "L2 misses" r.l2_misses b.l2_misses;
  pair "prefetches" r.prefetches b.prefetches;
  compare_stats r.cache b.cache

(* Request windows over the accesses of one batch, derived from the
   scenario alone — the soak must not draw RNG here (stream isolation):
   windows of [len] accesses separated by [skip] accesses outside every
   window, starting at the batch's first access. *)
let window_shape (sc : Scenario.t) =
  (1 + (sc.tlb_entries mod 5), sc.cache.Sassoc.ways mod 3)

(* Whether batch index [i] opens or closes a window. *)
let window_first (len, skip) i = i mod (len + skip) = 0
let window_last (len, _) ~first i = i = first + len - 1

let windows_within (len, skip) n =
  let rec go start acc =
    if start + len > n then Array.of_list (List.rev acc)
    else go (start + len + skip) ((start, start + len) :: acc)
  in
  go 0 []

let pp_samples l = String.concat ";" (List.map string_of_int l)

let run_scenario ?bug (sc : Scenario.t) =
  let cfg =
    System.config ~page_size:sc.page_size ~tlb_entries:sc.tlb_entries sc.cache
  in
  (* Two identical machines: [scalar] replays each access the moment it
     appears ([System.access]); [batched] queues runs of accesses and
     replays them through [System.run_packed_requests] at the next
     reconfiguration point, with request windows cut from the batch by
     [window_shape]. Reconfigurations land on both sides in scenario
     order, so the two machines see exactly the same history — every
     counter, the cache contents and the TLB-dependent reconfiguration
     costs must match, and so must every window's latency: the scalar side
     reads its cycle count when a window opens and when it closes. *)
  let scalar = System.create cfg in
  let batched = System.create cfg in
  let shape = window_shape sc in
  let pending = ref [] in
  let batch_len = ref 0 in
  (* the open window's first index and opening cycle count *)
  let open_window = ref None in
  let latencies = ref [] in
  let step = ref 0 in
  let cycles sys = (System.total sys).Run_stats.cycles in
  let flush () =
    match !pending with
    | [] -> ()
    | evs ->
        let evs = List.rev evs in
        (* The planted machine-fast-path bug lives here, on the batched
           side: gaps are zeroed when packing the batch, corrupting
           instruction and cycle accounting. *)
        let evs =
          if bug = Some Oracle.Machine_fast_path then
            List.map (fun (a : Access.t) -> { a with gap = 0 }) evs
          else evs
        in
        let requests = windows_within shape (List.length evs) in
        let stats =
          System.run_packed_requests batched (Memtrace.Packed.of_list evs)
            ~requests
        in
        let expected = List.rev !latencies in
        pending := [];
        batch_len := 0;
        open_window := None;
        latencies := [];
        compare_totals (System.total scalar) (System.total batched);
        if
          not
            (Machine.Latency.equal stats.Run_stats.requests
               (Machine.Latency.of_samples (Array.of_list expected)))
        then
          failf "request latencies differ: scalar [%s], batched %a"
            (pp_samples expected) Machine.Latency.pp stats.Run_stats.requests
  in
  let apply event =
    match (event : Scenario.event) with
    | Scenario.Access a ->
        let i = !batch_len in
        if window_first shape i then open_window := Some (i, cycles scalar);
        ignore (System.access scalar a);
        (match !open_window with
        | Some (first, opened) when window_last shape ~first i ->
            latencies := (cycles scalar - opened) :: !latencies;
            open_window := None
        | Some _ | None -> ());
        pending := a :: !pending;
        incr batch_len
    | Scenario.Retint { base; size; tint } ->
        flush ();
        let tint = Vm.Tint.make tint in
        let rs =
          Vm.Mapping.retint_region (System.mapping scalar) ~base ~size tint
        in
        let rb =
          Vm.Mapping.retint_region (System.mapping batched) ~base ~size tint
        in
        if rs <> rb then
          failf "retint page count differs: scalar %d, batched %d" rs rb
    | Scenario.Remap { tint; mask } ->
        flush ();
        let tint = Vm.Tint.make tint in
        Vm.Mapping.remap_tint (System.mapping scalar) tint mask;
        Vm.Mapping.remap_tint (System.mapping batched) tint mask
    | Scenario.Flush_tlb ->
        flush ();
        System.flush_tlb scalar;
        System.flush_tlb batched
    | Scenario.Flush_cache ->
        flush ();
        System.flush_cache scalar;
        System.flush_cache batched
  in
  try
    List.iter
      (fun e ->
        apply e;
        incr step)
      sc.events;
    flush ();
    compare_totals (System.total scalar) (System.total batched);
    for set = 0 to cfg.System.cache.Sassoc.sets - 1 do
      let r = Sassoc.lines_in_set (System.cache scalar) set in
      let b = Sassoc.lines_in_set (System.cache batched) set in
      if r <> b then
        failf "final contents of set %d differ: scalar has %d lines, \
               batched %d"
          set (List.length r) (List.length b)
    done;
    let rc = Vm.Mapping.cost (System.mapping scalar) in
    let bc = Vm.Mapping.cost (System.mapping batched) in
    if rc <> bc then
      failf "reconfiguration costs differ: scalar (%a), batched (%a)"
        Vm.Mapping.pp_cost rc Vm.Mapping.pp_cost bc;
    Agree
  with Found detail -> Diverge { step = !step; detail }
