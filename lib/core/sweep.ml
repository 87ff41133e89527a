module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask
module Stack_dist = Cache.Stack_dist
module Partition = Layout.Partition
module Region = Layout.Region
module Timing = Machine.Timing
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency

exception Infeasible

(* Byte ranges as parallel arrays, so membership is an allocation-free scan
   like [Machine.System]'s own region checks (there are at most a handful of
   pinned/uncached regions per partition). *)
type ranges = { bases : int array; limits : int array }

let no_ranges = { bases = [||]; limits = [||] }

let ranges_of l =
  {
    bases = Array.of_list (List.map fst l);
    limits = Array.of_list (List.map (fun (b, s) -> b + s) l);
  }

let in_ranges r addr =
  let n = Array.length r.bases in
  let rec go i =
    i < n
    && ((addr >= Array.unsafe_get r.bases i
        && addr < Array.unsafe_get r.limits i)
       || go (i + 1))
  in
  go 0

let feasible_cache cache =
  cache.Sassoc.policy = Cache.Policy.Lru && not cache.Sassoc.classify

(* Every kind byte of every trace is decoded before a pass touches a TLB or
   an engine, so a corrupt byte is rejected, never half-evaluated. The
   sharded passes rely on [route_serial], which runs first, to have done
   it before any domain starts. *)
let check_kinds packed_list =
  List.iter
    (fun p ->
      Memtrace.Packed.check_kinds p ~pos:0 ~stop:(Memtrace.Packed.length p))
    packed_list

(* One pass over the packed traces: uncached references are recognized by
   byte range first (they bypass the TLB, as in the machine), every other
   access does a TLB lookup (with the same consecutive-same-page shortcut
   the machine's batched loop uses — a repeated lookup of the MRU page is an
   LRU identity, so those hits can be credited wholesale) and then feeds the
   stack-distance engine of the column group owning its page. [page_map]
   gives that group per page; [None] means a single group takes all traffic,
   as in the unmapped baseline. Pages of pinned scratchpad regions map to
   group [-1]: {!Machine.System.pin_region} preloads the whole region into
   its columns and nothing else traffics them, so every in-range access is a
   guaranteed cache hit needing no engine (and out-of-range accesses to such
   a page would miss into the pinned columns — [Infeasible]). An access to a
   page the map does not claim is traffic the decomposition cannot attribute
   to an isolated group — [Infeasible]. *)
let eval ?requests ~cache ~timing ~page_size ~tlb_entries ~scratch ~uncached
    ~page_map ~groups ~group_ways ~setup_cycles packed_list =
  check_kinds packed_list;
  let page_of =
    if page_size > 0 && page_size land (page_size - 1) = 0 then (
      let shift = ref 0 in
      while 1 lsl !shift < page_size do
        incr shift
      done;
      let shift = !shift in
      fun addr -> addr lsr shift)
    else fun addr -> addr / page_size
  in
  let page_table = Vm.Page_table.create ~page_size () in
  let tlb = Vm.Tlb.create ~entries:tlb_entries ~page_table in
  (* Request windows index the concatenation of the packed traces, exactly
     like [Machine.System.run_packed_requests] over the same stream. A
     request's latency is the sum of its accesses' per-access costs, which
     mirror the machine's scalar path arithmetically: gap + flat latency for
     uncached, gap + hit_cycles + the penalties of this access's own miss /
     writeback / TLB miss for everything else. Per-access miss and writeback
     outcomes come from {!Stack_dist.access_traced} at the group's
     associativity; the TLB outcome from the miss-counter delta around the
     real lookup (the consecutive-same-page memo is a guaranteed hit). *)
  let req = match requests with None -> [||] | Some r -> r in
  let track = match requests with Some _ -> true | None -> false in
  let n_total_all =
    List.fold_left (fun acc p -> acc + Memtrace.Packed.length p) 0 packed_list
  in
  Array.iteri
    (fun i (start, stop) ->
      if start < 0 || start >= stop || stop > n_total_all then
        invalid_arg "Sweep: request span out of bounds";
      if i > 0 && start < snd req.(i - 1) then
        invalid_arg "Sweep: request spans must be sorted and disjoint")
    req;
  let lat =
    Latency.Builder.create ~initial_capacity:(max 16 (Array.length req)) ()
  in
  let gi = ref 0 in
  let next_req = ref 0 in
  let in_window = ref false in
  let win_cycles = ref 0 in
  let n_total = ref 0 in
  let gap_sum = ref 0 in
  let n_uncached = ref 0 in
  let memo_hits = ref 0 in
  let last_page = ref min_int in
  List.iter
    (fun packed ->
      let n = Memtrace.Packed.length packed in
      let addrs = Memtrace.Packed.raw_addrs packed in
      let gaps = Memtrace.Packed.raw_gaps packed in
      let kinds = Memtrace.Packed.raw_kinds packed in
      n_total := !n_total + n;
      for i = 0 to n - 1 do
        let addr = Bigarray.Array1.unsafe_get addrs i in
        let gap = Bigarray.Array1.unsafe_get gaps i in
        gap_sum := !gap_sum + gap;
        (if
           track
           && (not !in_window)
           && !next_req < Array.length req
           && !gi = fst req.(!next_req)
         then begin
           in_window := true;
           win_cycles := 0
         end);
        let cost = ref gap in
        (if in_ranges uncached addr then begin
           incr n_uncached;
           cost := !cost + timing.Timing.uncached_cycles
         end
         else begin
           let page = page_of addr in
           (if page = !last_page then incr memo_hits
            else begin
              let m0 = Vm.Tlb.misses tlb in
              ignore (Vm.Tlb.lookup_page_quick tlb page);
              if Vm.Tlb.misses tlb <> m0 then
                cost := !cost + timing.Timing.tlb_miss_penalty;
              last_page := page
            end);
           cost := !cost + timing.Timing.hit_cycles;
           let feed g =
             let kind = Memtrace.Packed.kind_at kinds i in
             if !in_window then begin
               let seen =
                 Stack_dist.access_traced (Array.unsafe_get groups g) ~kind
                   ~ways:(Array.unsafe_get group_ways g)
                   addr
               in
               if seen land 1 = 0 then
                 cost := !cost + timing.Timing.miss_penalty;
               if seen land 2 <> 0 then
                 cost := !cost + timing.Timing.writeback_penalty
             end
             else Stack_dist.access (Array.unsafe_get groups g) ~kind addr
           in
           match page_map with
           | None -> feed 0
           | Some map -> (
               match Hashtbl.find_opt map page with
               | Some g when g >= 0 -> feed g
               | Some _ ->
                   (* pinned page: a guaranteed hit in its preloaded columns,
                      but only inside the pinned byte range *)
                   if not (in_ranges scratch addr) then raise Infeasible
               | None -> raise Infeasible)
         end);
        (if !in_window then begin
           win_cycles := !win_cycles + !cost;
           if !gi = snd req.(!next_req) - 1 then begin
             Latency.Builder.push lat !win_cycles;
             in_window := false;
             incr next_req
           end
         end);
        incr gi
      done)
    packed_list;
  Vm.Tlb.note_hits tlb !memo_hits;
  let misses = ref 0 in
  let evictions = ref 0 in
  let writebacks = ref 0 in
  Array.iteri
    (fun g engine ->
      let ways = Array.unsafe_get group_ways g in
      misses := !misses + Stack_dist.misses engine ~ways;
      evictions := !evictions + Stack_dist.evictions engine ~ways;
      writebacks := !writebacks + Stack_dist.writebacks engine ~ways)
    groups;
  let resolved = !n_total - !n_uncached in
  let tlb_hits = Vm.Tlb.hits tlb in
  let tlb_misses = Vm.Tlb.misses tlb in
  let cycles =
    setup_cycles + !gap_sum
    + (resolved * timing.Timing.hit_cycles)
    + (!n_uncached * timing.Timing.uncached_cycles)
    + (!misses * timing.Timing.miss_penalty)
    + (!writebacks * timing.Timing.writeback_penalty)
    + (tlb_misses * timing.Timing.tlb_miss_penalty)
  in
  let stats = Cache.Stats.create ~ways:cache.Sassoc.ways in
  stats.Cache.Stats.accesses <- resolved;
  stats.Cache.Stats.hits <- resolved - !misses;
  stats.Cache.Stats.misses <- !misses;
  stats.Cache.Stats.evictions <- !evictions;
  stats.Cache.Stats.writebacks <- !writebacks;
  {
    Run_stats.instructions = !gap_sum + !n_total;
    cycles;
    memory_accesses = !n_total;
    (* [pin_region] does not register a machine scratchpad region; pinned
       traffic is ordinary (always-hitting) cached traffic *)
    scratchpad_accesses = 0;
    tlb_hits;
    tlb_misses;
    l2_hits = 0;
    l2_misses = 0;
    prefetches = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
    cache = stats;
    requests =
      (if track then Latency.Builder.build lat else Latency.empty);
  }

(* The sampled twin of [eval]: the same routing loop (uncached ranges, exact
   TLB replay with the same-page memo, page -> group attribution), but each
   group is a SHARDS-style {!Stack_dist.Sampled} estimator, so only accesses
   landing in its selected sets cost engine work. Per-request latency makes
   no sense on a subsample, so there are no request windows; the result is
   the closed-form cycle count of [eval] with the exact per-group miss and
   writeback totals replaced by their scaled estimates — a float. *)
let eval_sampled ~timing ~page_size ~tlb_entries ~scratch ~uncached ~page_map
    ~(groups : Stack_dist.Sampled.t array) ~group_ways ~setup_cycles
    packed_list =
  check_kinds packed_list;
  let page_of =
    if page_size > 0 && page_size land (page_size - 1) = 0 then (
      let shift = ref 0 in
      while 1 lsl !shift < page_size do
        incr shift
      done;
      let shift = !shift in
      fun addr -> addr lsr shift)
    else fun addr -> addr / page_size
  in
  let page_table = Vm.Page_table.create ~page_size () in
  let tlb = Vm.Tlb.create ~entries:tlb_entries ~page_table in
  let n_total = ref 0 in
  let gap_sum = ref 0 in
  let n_uncached = ref 0 in
  let memo_hits = ref 0 in
  let last_page = ref min_int in
  List.iter
    (fun packed ->
      let n = Memtrace.Packed.length packed in
      let addrs = Memtrace.Packed.raw_addrs packed in
      let gaps = Memtrace.Packed.raw_gaps packed in
      let kinds = Memtrace.Packed.raw_kinds packed in
      n_total := !n_total + n;
      for i = 0 to n - 1 do
        let addr = Bigarray.Array1.unsafe_get addrs i in
        gap_sum := !gap_sum + Bigarray.Array1.unsafe_get gaps i;
        if in_ranges uncached addr then incr n_uncached
        else begin
          let page = page_of addr in
          (if page = !last_page then incr memo_hits
           else begin
             ignore (Vm.Tlb.lookup_page_quick tlb page);
             last_page := page
           end);
          let feed g =
            let kind = Memtrace.Packed.kind_at kinds i in
            Stack_dist.Sampled.access (Array.unsafe_get groups g) ~kind addr
          in
          match page_map with
          | None -> feed 0
          | Some map -> (
              match Hashtbl.find_opt map page with
              | Some g when g >= 0 -> feed g
              | Some _ ->
                  if not (in_ranges scratch addr) then raise Infeasible
              | None -> raise Infeasible)
        end
      done)
    packed_list;
  Vm.Tlb.note_hits tlb !memo_hits;
  let misses = ref 0. in
  let writebacks = ref 0. in
  Array.iteri
    (fun g engine ->
      let ways = Array.unsafe_get group_ways g in
      misses := !misses +. Stack_dist.Sampled.misses_est engine ~ways;
      writebacks :=
        !writebacks +. Stack_dist.Sampled.writebacks_est engine ~ways)
    groups;
  let resolved = !n_total - !n_uncached in
  let tlb_misses = Vm.Tlb.misses tlb in
  float_of_int
    (setup_cycles + !gap_sum
    + (resolved * timing.Timing.hit_cycles)
    + (!n_uncached * timing.Timing.uncached_cycles)
    + (tlb_misses * timing.Timing.tlb_miss_penalty))
  +. (!misses *. float_of_int timing.Timing.miss_penalty)
  +. (!writebacks *. float_of_int timing.Timing.writeback_penalty)

let standard ?translate ?requests ~cache ~timing ~page_size ~tlb_entries
    packed_list =
  if not (feasible_cache cache) then None
  else
    let engine =
      Stack_dist.create ?translate ~line_size:cache.Sassoc.line_size
        ~sets:cache.Sassoc.sets ~max_ways:cache.Sassoc.ways ()
    in
    (* [Infeasible] cannot be raised without a page map. *)
    Some
      (eval ?requests ~cache ~timing ~page_size ~tlb_entries
         ~scratch:no_ranges ~uncached:no_ranges ~page_map:None
         ~groups:[| engine |] ~group_ways:[| cache.Sassoc.ways |]
         ~setup_cycles:0 packed_list)

let standard_sampled ?translate ?seed ?min_sets ?budget ~rate ~cache ~timing
    ~page_size ~tlb_entries packed_list =
  if not (feasible_cache cache) then None
  else
    let engine =
      Stack_dist.Sampled.create ?translate ?seed ?min_sets ?budget ~rate
        ~line_size:cache.Sassoc.line_size ~sets:cache.Sassoc.sets
        ~max_ways:cache.Sassoc.ways ()
    in
    Some
      (eval_sampled ~timing ~page_size ~tlb_entries ~scratch:no_ranges
         ~uncached:no_ranges ~page_map:None ~groups:[| engine |]
         ~group_ways:[| cache.Sassoc.ways |] ~setup_cycles:0 packed_list)

(* The partition decomposition shared by the exact evaluator and the sampled
   estimator: byte ranges, the page -> group map, the per-group way counts
   (one group per distinct cached column mask) and the copy-in charge.
   Raises [Infeasible] exactly where {!partitioned} reports [None]. *)
type plan = {
  plan_scratch : ranges;
  plan_uncached : ranges;
  plan_page_map : (int, int) Hashtbl.t;
  plan_group_ways : int array;
  plan_setup : int;
}

let decompose ~cache ~timing ~page_size ~part ~copy_in =
  let line_size = cache.Sassoc.line_size in
  let page_map : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let claim ~group base size =
    if size > 0 then
      let first = base / page_size in
      let last = (base + size - 1) / page_size in
      for page = first to last do
        match Hashtbl.find_opt page_map page with
        | None -> Hashtbl.add page_map page group
        | Some g when g = group -> ()
        | Some _ -> raise Infeasible
      done
  in
  let scratch = ref [] in
  let uncached = ref [] in
  let scratch_mask = ref Bitmask.empty in
  let masks = ref [] in
  let ways_rev = ref [] in
  let n_groups = ref 0 in
  let setup = ref 0 in
  List.iter
    (fun pl ->
      let region = pl.Partition.region in
      let size = region.Region.size in
      match (pl.Partition.role, pl.Partition.columns) with
      | Partition.Uncached, _ ->
          uncached := (pl.Partition.base, size) :: !uncached
      | (Partition.Scratchpad | Partition.Cached), None -> raise Infeasible
      | Partition.Scratchpad, Some mask ->
          (* Same copy-in charge [Partition.apply] would issue; the
             machine folds it into the first run's cycle delta. *)
          if List.mem region.Region.var copy_in then begin
            let lines = (size + line_size - 1) / line_size in
            setup :=
              !setup
              + lines
                * (timing.Timing.hit_cycles + timing.Timing.miss_penalty)
          end;
          scratch := (pl.Partition.base, size) :: !scratch;
          scratch_mask := Bitmask.union !scratch_mask mask;
          claim ~group:(-1) pl.Partition.base size
      | Partition.Cached, Some mask ->
          let group =
            match
              List.find_opt (fun (m, _) -> Bitmask.equal m mask) !masks
            with
            | Some (_, g) -> g
            | None ->
                let ways = Bitmask.count mask in
                if ways = 0 then raise Infeasible;
                let g = !n_groups in
                incr n_groups;
                ways_rev := ways :: !ways_rev;
                masks := (mask, g) :: !masks;
                g
          in
          claim ~group pl.Partition.base size)
    part.Partition.placements;
  (* Each cached group is an isolated LRU cache only if its columns are
     disjoint from every other group's and from the pinned scratchpad
     columns (whose preloaded lines would otherwise occupy group ways). *)
  let rec disjoint seen = function
    | [] -> ()
    | m :: rest ->
        if not (Bitmask.is_empty (Bitmask.inter m seen)) then raise Infeasible;
        disjoint (Bitmask.union m seen) rest
  in
  disjoint !scratch_mask (List.rev_map fst !masks);
  {
    plan_scratch = ranges_of !scratch;
    plan_uncached = ranges_of !uncached;
    plan_page_map = page_map;
    plan_group_ways = Array.of_list (List.rev !ways_rev);
    plan_setup = !setup;
  }

let partitioned ?requests ~cache ~timing ~page_size ~tlb_entries ~part
    ~copy_in packed_list =
  if not (feasible_cache cache) then None
  else
    try
      let plan = decompose ~cache ~timing ~page_size ~part ~copy_in in
      let groups =
        Array.map
          (fun ways ->
            Stack_dist.create ~line_size:cache.Sassoc.line_size
              ~sets:cache.Sassoc.sets ~max_ways:ways ())
          plan.plan_group_ways
      in
      Some
        (eval ?requests ~cache ~timing ~page_size ~tlb_entries
           ~scratch:plan.plan_scratch ~uncached:plan.plan_uncached
           ~page_map:(Some plan.plan_page_map) ~groups
           ~group_ways:plan.plan_group_ways ~setup_cycles:plan.plan_setup
           packed_list)
    with Infeasible -> None

let partitioned_sampled ?seed ?min_sets ?budget ~rate ~cache ~timing
    ~page_size ~tlb_entries ~part ~copy_in packed_list =
  if not (feasible_cache cache) then None
  else
    try
      let plan = decompose ~cache ~timing ~page_size ~part ~copy_in in
      let groups =
        Array.map
          (fun ways ->
            Stack_dist.Sampled.create ?seed ?min_sets ?budget ~rate
              ~line_size:cache.Sassoc.line_size ~sets:cache.Sassoc.sets
              ~max_ways:ways ())
          plan.plan_group_ways
      in
      Some
        (eval_sampled ~timing ~page_size ~tlb_entries
           ~scratch:plan.plan_scratch ~uncached:plan.plan_uncached
           ~page_map:(Some plan.plan_page_map) ~groups
           ~group_ways:plan.plan_group_ways ~setup_cycles:plan.plan_setup
           packed_list)
    with Infeasible -> None

(* {2 Domain-parallel set-sharded evaluators}

   The cache side of a sweep point is a Mattson pass, which is exactly
   independent per cache set (see [Stack_dist.merge_into]); the TLB side is
   inherently serial (its state depends on the global access order) but
   cheap — page extraction plus a memoized lookup, no engine work. The
   parallel evaluators therefore split the two: worker domains each run the
   engines over one set shard of the trace, and one serial pass replays the
   TLB and gap accounting; the closed-form cycle arithmetic then recombines
   them exactly as [eval] does, so the result is byte-identical to the
   serial evaluator for any [jobs]. Per-request latency is inherently
   serial-interleaved, so the parallel variants omit [?requests], exactly
   like [eval_sampled]. *)

let check_jobs ~jobs ~sets name =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Sweep.%s: jobs must be a positive domain count, got %d"
         name jobs);
  if jobs > sets then
    invalid_arg
      (Printf.sprintf "Sweep.%s: more shards (jobs=%d) than sets (%d)" name
         jobs sets)

let page_fn page_size =
  if page_size > 0 && page_size land (page_size - 1) = 0 then (
    let shift = ref 0 in
    while 1 lsl !shift < page_size do
      incr shift
    done;
    let shift = !shift in
    fun addr -> addr lsr shift)
  else fun addr -> addr / page_size

(* The serial half: the routing loop of [eval] without any engine work —
   gap sums, uncached recognition, the exact TLB replay with the
   consecutive-same-page memo, and the full feasibility checks (unclaimed
   pages, scratchpad byte ranges), raising [Infeasible] exactly where
   [eval] would. *)
let route_serial ~page_size ~tlb_entries ~scratch ~uncached ~page_map
    packed_list =
  check_kinds packed_list;
  let page_of = page_fn page_size in
  let page_table = Vm.Page_table.create ~page_size () in
  let tlb = Vm.Tlb.create ~entries:tlb_entries ~page_table in
  let n_total = ref 0 in
  let gap_sum = ref 0 in
  let n_uncached = ref 0 in
  let memo_hits = ref 0 in
  let last_page = ref min_int in
  List.iter
    (fun packed ->
      let n = Memtrace.Packed.length packed in
      let addrs = Memtrace.Packed.raw_addrs packed in
      let gaps = Memtrace.Packed.raw_gaps packed in
      n_total := !n_total + n;
      for i = 0 to n - 1 do
        let addr = Bigarray.Array1.unsafe_get addrs i in
        gap_sum := !gap_sum + Bigarray.Array1.unsafe_get gaps i;
        if in_ranges uncached addr then incr n_uncached
        else begin
          let page = page_of addr in
          (if page = !last_page then incr memo_hits
           else begin
             ignore (Vm.Tlb.lookup_page_quick tlb page);
             last_page := page
           end);
          match page_map with
          | None -> ()
          | Some map -> (
              match Hashtbl.find_opt map page with
              | Some g when g >= 0 -> ()
              | Some _ ->
                  if not (in_ranges scratch addr) then raise Infeasible
              | None -> raise Infeasible)
        end
      done)
    packed_list;
  Vm.Tlb.note_hits tlb !memo_hits;
  (!n_total, !gap_sum, !n_uncached, Vm.Tlb.hits tlb, Vm.Tlb.misses tlb)

(* The parallel half: [jobs] domains, each owning the sets with
   [set mod jobs = shard] of every group engine, walking the whole trace
   with a cheap set filter and paying engine work only for owned sets. *)
let sharded_group_pass ~jobs ~cache ~uncached ~page_map ~page_of ~group_ways
    ?on_shard packed_list =
  let line_shift =
    let rec go n a = if n <= 1 then a else go (n lsr 1) (a + 1) in
    go cache.Sassoc.line_size 0
  in
  let set_mask = cache.Sassoc.sets - 1 in
  let worker shard () =
    let groups =
      Array.map
        (fun ways ->
          Stack_dist.create ~line_size:cache.Sassoc.line_size
            ~sets:cache.Sassoc.sets ~max_ways:ways ())
        group_ways
    in
    List.iter
      (fun packed ->
        let n = Memtrace.Packed.length packed in
        let addrs = Memtrace.Packed.raw_addrs packed in
        let kinds = Memtrace.Packed.raw_kinds packed in
        for i = 0 to n - 1 do
          let addr = Bigarray.Array1.unsafe_get addrs i in
          if
            ((addr lsr line_shift) land set_mask) mod jobs = shard
            && not (in_ranges uncached addr)
          then begin
            let feed g =
              let kind = Memtrace.Packed.kind_at kinds i in
              Stack_dist.access (Array.unsafe_get groups g) ~kind addr
            in
            match page_map with
            | None -> feed 0
            | Some map -> (
                match Hashtbl.find_opt map (page_of addr) with
                | Some g when g >= 0 -> feed g
                | Some _ | None ->
                    (* pinned or unclaimed: the serial routing pass already
                       validated (or rejected) this traffic *)
                    ())
          end
        done)
      packed_list;
    groups
  in
  let note shard groups =
    match on_shard with
    | Some f ->
        f ~shard
          ~accesses:
            (Array.fold_left (fun a e -> a + Stack_dist.accesses e) 0 groups)
    | None -> ()
  in
  if jobs = 1 then begin
    let groups = worker 0 () in
    note 0 groups;
    groups
  end
  else begin
    let domains =
      Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    let g0 = worker 0 () in
    note 0 g0;
    Array.iteri
      (fun k d ->
        let gk = Domain.join d in
        note (k + 1) gk;
        Array.iteri (fun g e -> Stack_dist.merge_into g0.(g) e) gk)
      domains;
    g0
  end

(* Recombine: identical arithmetic to [eval]'s tail over the merged
   engines' readings. *)
let assemble ~cache ~timing ~setup_cycles ~n_total ~gap_sum ~n_uncached
    ~tlb_hits ~tlb_misses ~groups ~group_ways =
  let misses = ref 0 in
  let evictions = ref 0 in
  let writebacks = ref 0 in
  Array.iteri
    (fun g engine ->
      let ways = Array.unsafe_get group_ways g in
      misses := !misses + Stack_dist.misses engine ~ways;
      evictions := !evictions + Stack_dist.evictions engine ~ways;
      writebacks := !writebacks + Stack_dist.writebacks engine ~ways)
    groups;
  let resolved = n_total - n_uncached in
  let cycles =
    setup_cycles + gap_sum
    + (resolved * timing.Timing.hit_cycles)
    + (n_uncached * timing.Timing.uncached_cycles)
    + (!misses * timing.Timing.miss_penalty)
    + (!writebacks * timing.Timing.writeback_penalty)
    + (tlb_misses * timing.Timing.tlb_miss_penalty)
  in
  let stats = Cache.Stats.create ~ways:cache.Sassoc.ways in
  stats.Cache.Stats.accesses <- resolved;
  stats.Cache.Stats.hits <- resolved - !misses;
  stats.Cache.Stats.misses <- !misses;
  stats.Cache.Stats.evictions <- !evictions;
  stats.Cache.Stats.writebacks <- !writebacks;
  {
    Run_stats.instructions = gap_sum + n_total;
    cycles;
    memory_accesses = n_total;
    scratchpad_accesses = 0;
    tlb_hits;
    tlb_misses;
    l2_hits = 0;
    l2_misses = 0;
    prefetches = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
    cache = stats;
    requests = Latency.empty;
  }

let standard_parallel ?translate ?on_shard ~jobs ~cache ~timing ~page_size
    ~tlb_entries packed_list =
  check_jobs ~jobs ~sets:cache.Sassoc.sets "standard_parallel";
  if not (feasible_cache cache) then None
  else begin
    let n_total, gap_sum, n_uncached, tlb_hits, tlb_misses =
      route_serial ~page_size ~tlb_entries ~scratch:no_ranges
        ~uncached:no_ranges ~page_map:None packed_list
    in
    let group_ways = [| cache.Sassoc.ways |] in
    let groups =
      match translate with
      | None ->
          sharded_group_pass ~jobs ~cache ~uncached:no_ranges ~page_map:None
            ~page_of:(page_fn page_size) ~group_ways ?on_shard packed_list
      | Some f ->
          (* A frame translation moves addresses between sets, so the shard
             filter must apply it; the engine owns it, so route through the
             engine-level sharded feed (translate-once). *)
          let worker shard () =
            let e =
              Stack_dist.create ~translate:f
                ~line_size:cache.Sassoc.line_size ~sets:cache.Sassoc.sets
                ~max_ways:cache.Sassoc.ways ()
            in
            List.iter
              (fun p ->
                if jobs = 1 then Stack_dist.access_packed e p
                else
                  Stack_dist.access_packed_sharded e ~shards:jobs ~shard p)
              packed_list;
            e
          in
          let note shard e =
            match on_shard with
            | Some f -> f ~shard ~accesses:(Stack_dist.accesses e)
            | None -> ()
          in
          if jobs = 1 then begin
            let e = worker 0 () in
            note 0 e;
            [| e |]
          end
          else begin
            let domains =
              Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
            in
            let e0 = worker 0 () in
            note 0 e0;
            Array.iteri
              (fun k d ->
                let ek = Domain.join d in
                note (k + 1) ek;
                Stack_dist.merge_into e0 ek)
              domains;
            [| e0 |]
          end
    in
    Some
      (assemble ~cache ~timing ~setup_cycles:0 ~n_total ~gap_sum ~n_uncached
         ~tlb_hits ~tlb_misses ~groups ~group_ways)
  end

let partitioned_parallel ?on_shard ~jobs ~cache ~timing ~page_size
    ~tlb_entries ~part ~copy_in packed_list =
  check_jobs ~jobs ~sets:cache.Sassoc.sets "partitioned_parallel";
  if not (feasible_cache cache) then None
  else
    try
      let plan = decompose ~cache ~timing ~page_size ~part ~copy_in in
      let n_total, gap_sum, n_uncached, tlb_hits, tlb_misses =
        route_serial ~page_size ~tlb_entries ~scratch:plan.plan_scratch
          ~uncached:plan.plan_uncached ~page_map:(Some plan.plan_page_map)
          packed_list
      in
      let groups =
        sharded_group_pass ~jobs ~cache ~uncached:plan.plan_uncached
          ~page_map:(Some plan.plan_page_map) ~page_of:(page_fn page_size)
          ~group_ways:plan.plan_group_ways ?on_shard packed_list
      in
      Some
        (assemble ~cache ~timing ~setup_cycles:plan.plan_setup ~n_total
           ~gap_sum ~n_uncached ~tlb_hits ~tlb_misses ~groups
           ~group_ways:plan.plan_group_ways)
    with Infeasible -> None

let standard_sampled_parallel ?translate ?seed ?min_sets ~jobs ~rate ~cache
    ~timing ~page_size ~tlb_entries packed_list =
  check_jobs ~jobs ~sets:cache.Sassoc.sets "standard_sampled_parallel";
  if not (feasible_cache cache) then None
  else begin
    let n_total, gap_sum, n_uncached, _tlb_hits, tlb_misses =
      route_serial ~page_size ~tlb_entries ~scratch:no_ranges
        ~uncached:no_ranges ~page_map:None packed_list
    in
    let worker shard () =
      let e =
        Stack_dist.Sampled.create ?translate ?seed ?min_sets ~rate
          ~line_size:cache.Sassoc.line_size ~sets:cache.Sassoc.sets
          ~max_ways:cache.Sassoc.ways ()
      in
      List.iter
        (fun p ->
          if jobs = 1 then Stack_dist.Sampled.access_packed e p
          else
            Stack_dist.Sampled.access_packed_sharded e ~shards:jobs ~shard p)
        packed_list;
      e
    in
    let engine =
      if jobs = 1 then worker 0 ()
      else begin
        let domains =
          Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
        in
        let e0 = worker 0 () in
        Array.iter
          (fun d -> Stack_dist.Sampled.merge_into e0 (Domain.join d))
          domains;
        e0
      end
    in
    let ways = cache.Sassoc.ways in
    let resolved = n_total - n_uncached in
    Some
      (float_of_int
         (gap_sum
         + (resolved * timing.Timing.hit_cycles)
         + (n_uncached * timing.Timing.uncached_cycles)
         + (tlb_misses * timing.Timing.tlb_miss_penalty))
      +. (Stack_dist.Sampled.misses_est engine ~ways
          *. float_of_int timing.Timing.miss_penalty)
      +. (Stack_dist.Sampled.writebacks_est engine ~ways
          *. float_of_int timing.Timing.writeback_penalty))
  end

let masked ?requests ~cache ~timing ~page_size ~tlb_entries ~regions
    packed_list =
  if not (feasible_cache cache) then None
  else
    try
      let line_size = cache.Sassoc.line_size in
      let page_map : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let claim ~group base size =
        if size > 0 then
          let first = base / page_size in
          let last = (base + size - 1) / page_size in
          for page = first to last do
            match Hashtbl.find_opt page_map page with
            | None -> Hashtbl.add page_map page group
            | Some g when g = group -> ()
            | Some _ -> raise Infeasible
          done
      in
      let masks = ref [] in
      let engines = ref [] in
      let n_groups = ref 0 in
      List.iter
        (fun (base, size, mask) ->
          let group =
            match
              List.find_opt (fun (m, _) -> Bitmask.equal m mask) !masks
            with
            | Some (_, g) -> g
            | None ->
                let ways = Bitmask.count mask in
                if ways = 0 then raise Infeasible;
                let g = !n_groups in
                incr n_groups;
                engines :=
                  Stack_dist.create ~line_size ~sets:cache.Sassoc.sets
                    ~max_ways:ways ()
                  :: !engines;
                masks := (mask, g) :: !masks;
                g
          in
          claim ~group base size)
        regions;
      (* each group must be an isolated LRU cache: pairwise-disjoint masks *)
      let rec disjoint seen = function
        | [] -> ()
        | m :: rest ->
            if not (Bitmask.is_empty (Bitmask.inter m seen)) then
              raise Infeasible;
            disjoint (Bitmask.union m seen) rest
      in
      disjoint Bitmask.empty (List.rev_map fst !masks);
      let groups = Array.of_list (List.rev !engines) in
      let group_ways = Array.map Stack_dist.max_ways groups in
      Some
        (eval ?requests ~cache ~timing ~page_size ~tlb_entries
           ~scratch:no_ranges ~uncached:no_ranges ~page_map:(Some page_map)
           ~groups ~group_ways ~setup_cycles:0 packed_list)
    with Infeasible -> None
