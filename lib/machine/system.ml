module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Sassoc = Cache.Sassoc
module Bitmask = Cache.Bitmask

type config = {
  cache : Sassoc.config;
  l2 : Sassoc.config option;
  timing : Timing.t;
  page_size : int;
  tlb_entries : int;
}

let config ?(timing = Timing.default) ?(page_size = 256) ?(tlb_entries = 32)
    ?l2 cache =
  { cache; l2; timing; page_size; tlb_entries }

type region = {
  base : int;
  size : int;
}

let tint_cache_size = 8

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

(* What the batched replay loop reads and writes of the cache and the TLB,
   resolved once per system so a replay call, however short, starts with
   field loads rather than calls: cache flushes, TLB flushes and statistics
   resets all work in place, so none of these changes identity. *)
type views = {
  tags : int array;
  vmask : int array;
  pred : int array;
  dirty : Bytes.t;
  (* the LRU stamps when the cache is one the loop probes itself (LRU, no
     miss classification); [[||]] otherwise *)
  stamps : int array;
  lru_inline : bool;
  stats : Cache.Stats.t;
  tlb : Vm.Tlb.t;
  tlb_lru : Cache.Lru_set.t;
  tlb_tints : Vm.Tint.t array;
  page_table : Vm.Page_table.t;
  tint_table : Vm.Tint_table.t;
  page_shift : int;
  line_shift : int;
  set_mask : int;
  tag_shift : int;
  full : int;  (* the mask of every way *)
  write_byte : char;  (* a write's kind byte in a packed trace *)
}

let views cfg cache mapping =
  let geo = cfg.cache in
  let stamps = Sassoc.lru_stamps cache in
  let tlb = Vm.Mapping.tlb mapping in
  {
    tags = Sassoc.raw_tags cache;
    vmask = Sassoc.raw_valid cache;
    pred = Sassoc.raw_pred cache;
    dirty = Sassoc.raw_dirty cache;
    stamps = Option.value stamps ~default:[||];
    lru_inline = Option.is_some stamps;
    stats = Sassoc.stats cache;
    tlb;
    tlb_lru = Vm.Tlb.lru tlb;
    tlb_tints = Vm.Tlb.tints tlb;
    page_table = Vm.Mapping.page_table mapping;
    tint_table = Vm.Mapping.tint_table mapping;
    page_shift = log2 cfg.page_size;
    line_shift = log2 geo.Sassoc.line_size;
    set_mask = geo.Sassoc.sets - 1;
    tag_shift = log2 geo.Sassoc.sets;
    full = (Bitmask.full ~n:geo.Sassoc.ways :> int);
    write_byte = Char.chr (Memtrace.Packed.kind_code Access.Write);
  }

type t = {
  cfg : config;
  cache : Sassoc.t;
  l2 : Sassoc.t option;
  mapping : Vm.Mapping.t;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable prefetches : int;
  streaming_tints : (Vm.Tint.t, unit) Hashtbl.t;
  (* physical lines brought in by the prefetcher and not yet demanded:
     first use triggers the next prefetch (tagged prefetching) *)
  prefetch_tagged : (int, unit) Hashtbl.t;
  mutable scratchpads : region list;
  mutable uncached : region list;
  mutable frame_map : Vm.Frame_map.t option;
  mutable instructions : int;
  mutable cycles : int;
  mutable memory_accesses : int;
  mutable scratchpad_accesses : int;
  mutable pending_setup_cycles : int;
  mutable mshr_merges : int;
  mutable mshr_stalls : int;
  mutable dram_row_hits : int;
  mutable dram_row_conflicts : int;
  (* TLB counters live in the TLB itself; run deltas are snapshot-based. *)
  (* the batched replay's tint -> mask cache: the masks of the first few
     tints a replay meets, valid for that replay only *)
  tint_keys : Vm.Tint.t array;
  tint_masks : Bitmask.t array;
  mutable tints_n : int;
  views : views;
}

let create (cfg : config) =
  let cache = Sassoc.create cfg.cache in
  let mapping =
    Vm.Mapping.create ~tlb_entries:cfg.tlb_entries ~page_size:cfg.page_size
      ~columns:cfg.cache.Sassoc.ways ()
  in
  {
    cfg;
    cache;
    l2 = Option.map Sassoc.create cfg.l2;
    l2_hits = 0;
    l2_misses = 0;
    prefetches = 0;
    streaming_tints = Hashtbl.create 4;
    prefetch_tagged = Hashtbl.create 64;
    mapping;
    scratchpads = [];
    uncached = [];
    frame_map = None;
    instructions = 0;
    cycles = 0;
    memory_accesses = 0;
    scratchpad_accesses = 0;
    pending_setup_cycles = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
    tint_keys = Array.make tint_cache_size Vm.Tint.default;
    tint_masks = Array.make tint_cache_size Bitmask.empty;
    tints_n = 0;
    views = views cfg cache mapping;
  }

let mapping t = t.mapping
let l2_cache t = t.l2

let set_streaming t tint = Hashtbl.replace t.streaming_tints tint ()
let clear_streaming t tint = Hashtbl.remove t.streaming_tints tint
let is_streaming t tint = Hashtbl.mem t.streaming_tints tint
let set_frame_map t fm = t.frame_map <- Some fm
let frame_map t = t.frame_map

let physical t addr =
  match t.frame_map with None -> addr | Some fm -> Vm.Frame_map.translate fm addr
let cache t = t.cache
let timing t = t.cfg.timing
let page_size t = t.cfg.page_size

let overlaps a b = a.base < b.base + b.size && b.base < a.base + a.size

let add_scratchpad t ~base ~size =
  if size <= 0 then invalid_arg "System.add_scratchpad: size must be positive";
  let r = { base; size } in
  if List.exists (overlaps r) t.scratchpads then
    invalid_arg "System.add_scratchpad: overlapping region";
  t.scratchpads <- r :: t.scratchpads

let rec in_region regions addr =
  match regions with
  | [] -> false
  | r :: rest -> (addr >= r.base && addr < r.base + r.size) || in_region rest addr

let in_scratchpad t addr = in_region t.scratchpads addr
let in_uncached t addr = in_region t.uncached addr

let add_uncached t ~base ~size =
  if size <= 0 then invalid_arg "System.add_uncached: size must be positive";
  let r = { base; size } in
  if List.exists (overlaps r) t.scratchpads || List.exists (overlaps r) t.uncached
  then invalid_arg "System.add_uncached: overlapping region";
  t.uncached <- r :: t.uncached

let scratchpad_bytes t =
  List.fold_left (fun acc r -> acc + r.size) 0 t.scratchpads

let preload t ~base ~size =
  if size <= 0 then invalid_arg "System.preload: size must be positive";
  let line = t.cfg.cache.Sassoc.line_size in
  let first = base / line and last = (base + size - 1) / line in
  for l = first to last do
    if not (in_scratchpad t (l * line)) then begin
      let mask = Vm.Mapping.mask_of_quiet t.mapping (l * line) in
      ignore (Sassoc.access t.cache ~mask ~kind:Access.Read (physical t (l * line)))
    end
  done

let pin_region t ~base ~size ~mask ~tint =
  if Bitmask.is_empty mask then invalid_arg "System.pin_region: empty mask";
  let capacity =
    Bitmask.count mask * Sassoc.column_size_bytes t.cfg.cache
  in
  if size > capacity then
    invalid_arg
      (Printf.sprintf
         "System.pin_region: region (%d B) exceeds column capacity (%d B)"
         size capacity);
  ignore (Vm.Mapping.retint_region t.mapping ~base ~size tint);
  Vm.Mapping.remap_tint t.mapping tint mask;
  preload t ~base ~size

(* Setup charges accrue into a pending pot so that they land inside the
   NEXT run's delta (apply-then-run must see the cost). *)
let charge_cycles t n =
  if n < 0 then invalid_arg "System.charge_cycles: negative charge";
  t.pending_setup_cycles <- t.pending_setup_cycles + n

(* The cached half of one scalar access, after VM resolution: cache
   lookup, optional L2, stream prefetch, cycle accounting. *)
let access_cached t ~addr ~kind ~mask ~tint =
  let timing = t.cfg.timing in
  let stats = Sassoc.stats t.cache in
  let wb_before = stats.Cache.Stats.writebacks in
  (* Stream prefetch (Section 2: a prefetch buffer carved out of the
     general cache). Tagged next-line prefetching: both a miss and the
     first use of a previously-prefetched line fetch the line after it —
     into the stream's own columns, overlapped with memory time (no extra
     latency in this model). Prefetching stops where the next line's mask
     differs (region boundary). *)
  let maybe_prefetch () =
    if Hashtbl.mem t.streaming_tints tint then begin
      let line = t.cfg.cache.Sassoc.line_size in
      let next = addr + line in
      let next_mask = Vm.Mapping.mask_of_quiet t.mapping next in
      let next_phys = physical t next in
      if Bitmask.equal next_mask mask && Sassoc.fill t.cache ~mask next_phys
      then begin
        Hashtbl.replace t.prefetch_tagged (next_phys / line) ();
        t.prefetches <- t.prefetches + 1
      end
    end
  in
  let phys = physical t addr in
  let phys_line = phys / t.cfg.cache.Sassoc.line_size in
  match Sassoc.access t.cache ~mask ~kind phys with
  | Sassoc.Hit _ ->
      t.cycles <- t.cycles + timing.Timing.hit_cycles;
      if Hashtbl.mem t.prefetch_tagged phys_line then begin
        Hashtbl.remove t.prefetch_tagged phys_line;
        maybe_prefetch ()
      end
  | Sassoc.Miss _ ->
      t.cycles <- t.cycles + timing.Timing.hit_cycles;
      (* the line comes from L2 when one is configured and holds it *)
      (match t.l2 with
      | None -> t.cycles <- t.cycles + timing.Timing.miss_penalty
      | Some l2 -> (
          match Sassoc.access l2 ~kind phys with
          | Sassoc.Hit _ ->
              t.l2_hits <- t.l2_hits + 1;
              t.cycles <- t.cycles + timing.Timing.l2_hit_cycles
          | Sassoc.Miss _ ->
              t.l2_misses <- t.l2_misses + 1;
              t.cycles <- t.cycles + timing.Timing.miss_penalty));
      if stats.Cache.Stats.writebacks > wb_before then
        t.cycles <- t.cycles + timing.Timing.writeback_penalty;
      maybe_prefetch ()

(* One access through the scalar reference path, charged to [t] as it
   goes. The batched loop below is pinned against it. *)
let access t ({ Access.addr; kind; gap; _ } : Access.t) =
  let before = t.cycles in
  let timing = t.cfg.timing in
  t.instructions <- t.instructions + gap + 1;
  t.cycles <- t.cycles + gap;
  t.memory_accesses <- t.memory_accesses + 1;
  if in_scratchpad t addr then begin
    t.scratchpad_accesses <- t.scratchpad_accesses + 1;
    t.cycles <- t.cycles + timing.Timing.scratchpad_cycles
  end
  else if in_uncached t addr then
    t.cycles <- t.cycles + timing.Timing.uncached_cycles
  else begin
    let mask, tint, outcome = Vm.Mapping.resolve t.mapping addr in
    (match outcome with
    | Vm.Tlb.Hit -> ()
    | Vm.Tlb.Miss -> t.cycles <- t.cycles + timing.Timing.tlb_miss_penalty);
    access_cached t ~addr ~kind ~mask ~tint
  end;
  t.cycles - before

let snapshot t =
  {
    Run_stats.instructions = t.instructions;
    cycles = t.cycles;
    memory_accesses = t.memory_accesses;
    scratchpad_accesses = t.scratchpad_accesses;
    tlb_hits = Vm.Tlb.hits (Vm.Mapping.tlb t.mapping);
    tlb_misses = Vm.Tlb.misses (Vm.Mapping.tlb t.mapping);
    l2_hits = t.l2_hits;
    l2_misses = t.l2_misses;
    prefetches = t.prefetches;
    mshr_merges = t.mshr_merges;
    mshr_stalls = t.mshr_stalls;
    dram_row_hits = t.dram_row_hits;
    dram_row_conflicts = t.dram_row_conflicts;
    cache = Cache.Stats.copy (Sassoc.stats t.cache);
    requests = Latency.empty;
  }

(* Whether any region overlaps the [size]-byte page at [base]. *)
let rec region_overlaps regions ~base ~size =
  match regions with
  | [] -> false
  | r :: rest ->
      (r.base < base + size && base < r.base + r.size)
      || region_overlaps rest ~base ~size

(* How the replay loop prices time. [Blocking] is the arithmetic model the
   scalar path charges access by access; [Events] hands every access to the
   event core. *)
type hook =
  | Blocking
  | Events of { engine : Event.t; inject_merge_bug : bool }

(* The way of a set, based at [base] in the slot arrays, whose tag is [tag],
   scanning from [w]; -1 when none is. Int-annotated so [=] compiles to an
   integer compare. *)
let rec scan_ways (tags : int array) ~base ~ways (tag : int) w =
  if w >= ways then -1
  else if Array.unsafe_get tags (base + w) = tag then w
  else scan_ways tags ~base ~ways tag (w + 1)

(* Index of the lowest set bit of [m], which is non-zero. *)
let rec lowest_bit m i = if m land 1 <> 0 then i else lowest_bit (m lsr 1) (i + 1)

(* tint -> mask is constant during a replay: the masks of the first few
   tints met are kept, so the tint table (a string-keyed hash) is consulted
   about once per tint *)
let rec find_tint t tint_table tint i =
  if i >= t.tints_n then begin
    let m = Vm.Tint_table.lookup tint_table tint in
    if i < tint_cache_size then begin
      t.tint_keys.(i) <- tint;
      t.tint_masks.(i) <- m;
      t.tints_n <- i + 1
    end;
    m
  end
  else if t.tint_keys.(i) == tint || Vm.Tint.equal t.tint_keys.(i) tint then
    t.tint_masks.(i)
  else find_tint t tint_table tint (i + 1)

(* Stream prefetch (Section 2): tagged next-line prefetching into the
   stream's own columns, stopping where the next line's mask differs.
   Whether a line was prefetched. *)
let prefetch_next t hook ~line_shift ~addr ~mask =
  let next = addr + t.cfg.cache.Sassoc.line_size in
  let next_phys = physical t next in
  Bitmask.equal (Vm.Mapping.mask_of_quiet t.mapping next) mask
  && Sassoc.fill t.cache ~mask next_phys
  && begin
       Hashtbl.replace t.prefetch_tagged (next_phys lsr line_shift) ();
       (match hook with
       | Blocking -> ()
       | Events { engine; _ } -> Event.prefetch engine ~addr:next_phys);
       true
     end

(* The [Blocking] cycle count after [done_] accesses of a replay, relative
   to its entry. *)
let blocking_clock ~hit_cycles ~gap_sum ~region_n ~extra done_ =
  gap_sum + ((done_ - region_n) * hit_cycles) + extra

(* A fresh string: physically equal to no tint a page table holds, so the
   replay's current tint starts out as none. *)
let no_tint = Vm.Tint.make (String.make 1 '\000')

(* The batched replay loop behind every packed replay. Byte-identical to
   folding [access] over the same accesses (the machine-level differentials
   pin this), but organized around the invariant that during one replay the
   page table, tint table, regions, frame map and streaming set are all
   constant — only the TLB and the caches mutate, and only through the
   loop's own references. It does a reference's work itself instead of
   calling into the cache and TLB modules: dune's dev profile compiles every
   module with [-opaque] (and the compiler has no flambda), so no call
   across modules is inlined, and a dozen such calls per miss cost a third
   of the replay's time.

   - TLB. The loop remembers the page of its last lookup. That page is the
     TLB's most-recently-used entry, whose touch is the identity, so a
     repeated page is credited as a hit with no lookup at all. A page
     change makes one [Lru_set.touch_slot] on the TLB's entry set: a hit
     reads the tint the TLB keeps in the entry's slot, a miss walks the
     page table and stores the tint there —
     [Tlb.lookup_page_quick] step for step. A tint change looks its mask up
     in a small per-replay cache and checks it once.
   - Cache. An LRU cache that does not classify misses is probed in the
     loop over [Sassoc]'s own arrays: the predicted way, then a scan; a hit
     stamps its way with the next clock value; a miss takes the lowest
     empty way of the mask, else the mask's smallest stamp with a
     branch-free scan, and records the lines it displaced and wrote back.
     Every other configuration — another policy, miss classification, a
     streaming tint (whose prefetches fill the cache from outside the
     loop) or the event drill (which repeats an access) — calls
     [Sassoc.access_masked] per access instead.
   - Counters accrue in locals and land once, after the loop: the cache's
     statistics, clock and last displaced lines, the TLB's hits and misses,
     and [t]'s fields (every counter is a sum). Under [Blocking] the cycle
     count is derived rather than accumulated: every cached access pays
     [hit_cycles], so the loop tracks only the gap sum, the region-access
     count and the extra charges, and rebuilds the running count when a
     request window opens or closes.

   Pages overlapping a scratchpad or uncached region test region
   membership per address, and their cached accesses always make a real
   lookup. Nothing the loop remembers survives it: between two replays the
   caller may flush the TLB, re-tint pages or remap tints, so a replay of a
   handful of accesses — a round-robin slice — starts from scratch. What
   does survive is fixed per system ([views]), so that start costs field
   loads, the clock read and the landing calls, and allocates nothing.

   [requests] are validated (start, stop) spans. A window opens at its
   first access and closes after its last: under [Blocking] its latency is
   the cycle delta across it, under [Events] the latest retire among its
   accesses minus the first access's issue time. *)
let replay_loop t ~hook ~requests ~lat ~pos ~stop (p : Memtrace.Packed.t) =
  let addrs = Memtrace.Packed.raw_addrs p in
  let gaps = Memtrace.Packed.raw_gaps p in
  let kinds = Memtrace.Packed.raw_kinds p in
  let v = t.views in
  let write_byte = v.write_byte in
  let timing = t.cfg.timing in
  let hit_cycles = timing.Timing.hit_cycles in
  let tlb_miss_penalty = timing.Timing.tlb_miss_penalty in
  let page_size = t.cfg.page_size in
  let page_shift = v.page_shift in
  let line_size = t.cfg.cache.Sassoc.line_size in
  let line_shift = v.line_shift in
  let ways = t.cfg.cache.Sassoc.ways in
  let set_mask = v.set_mask and tag_shift = v.tag_shift and full = v.full in
  let cache = t.cache in
  let stats = v.stats in
  let fills = stats.Cache.Stats.fills_per_way in
  let tags = v.tags and vmask = v.vmask and pred = v.pred in
  let dirty = v.dirty and stamps = v.stamps in
  let tlb_lru = v.tlb_lru and tlb_tints = v.tlb_tints in
  let page_table = v.page_table and tint_table = v.tint_table in
  t.tints_n <- 0;
  let streaming = Hashtbl.length t.streaming_tints > 0 in
  let regions = t.scratchpads != [] || t.uncached != [] in
  let frame_map = t.frame_map in
  (* a streaming tint's prefetches and the event drill's repeated access
     call into the cache from inside the loop, so those replays take the
     generic path throughout *)
  let inline =
    v.lru_inline && (not streaming)
    &&
    match hook with
    | Events { inject_merge_bug = true; _ } -> false
    | Blocking | Events _ -> true
  in
  let clock = ref (if inline then Sassoc.clock cache else 0) in
  (* local counters, landed after the loop *)
  let gap_sum = ref 0 in
  let region_n = ref 0 in
  let scratchpad_n = ref 0 in
  let extra = ref 0 in
  let l2_hits = ref 0 and l2_misses = ref 0 in
  let prefetches = ref 0 in
  let tlb_hits = ref 0 and tlb_misses = ref 0 in
  let probes = ref 0 and misses = ref 0 in
  let evictions = ref 0 and writebacks = ref 0 in
  let evicted = ref (-1) and written_back = ref (-1) in
  (* the page of the last lookup, when it is a page with no region
     (-1 otherwise), and its resolution *)
  let cur_page = ref (-1) in
  let cur_tint = ref no_tint in
  let cur_mask = ref Bitmask.empty in
  let cur_cand = ref 0 in
  let cur_stream = ref false in
  let tlb_missed = ref false in
  (* request windows: the next window's first access ([max_int] when none
     is left), the open window's last access (-1 when none is open) *)
  let n_req = Array.length requests in
  let next_req = ref 0 in
  let win_first = ref (if n_req > 0 then fst requests.(0) else max_int) in
  let win_last = ref (-1) in
  let win_open = ref 0 in
  let win_retire = ref 0 in
  for i = pos to stop - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i in
    let gap = Bigarray.Array1.unsafe_get gaps i in
    if i = !win_first then begin
      let _, last = requests.(!next_req) in
      win_last := last - 1;
      win_open :=
        (match hook with
        | Blocking ->
            blocking_clock ~hit_cycles ~gap_sum:!gap_sum ~region_n:!region_n
              ~extra:!extra (i - pos)
        | Events { engine; _ } -> Event.now engine);
      win_retire := !win_open
    end;
    gap_sum := !gap_sum + gap;
    let page = addr lsr page_shift in
    (* 0: cached, on the page of the last lookup; 1: cached, on a new page
       with no region; 2: cached, on a page a region overlaps; 3:
       scratchpad; 4: uncached *)
    let where =
      if page = !cur_page then 0
      else if
        regions
        && (region_overlaps t.scratchpads ~base:(page lsl page_shift)
              ~size:page_size
           || region_overlaps t.uncached ~base:(page lsl page_shift)
                ~size:page_size)
      then
        if in_region t.scratchpads addr then 3
        else if in_region t.uncached addr then 4
        else 2
      else 1
    in
    let retire =
      if where <= 2 then begin
        if where = 0 then begin
          incr tlb_hits;
          tlb_missed := false
        end
        else begin
          let r = Cache.Lru_set.touch_slot tlb_lru page in
          let tint =
            if r >= 0 then begin
              incr tlb_hits;
              tlb_missed := false;
              Array.unsafe_get tlb_tints r
            end
            else begin
              incr tlb_misses;
              tlb_missed := true;
              let tint = Vm.Page_table.tint_of_page page_table page in
              Array.unsafe_set tlb_tints (-1 - r) tint;
              tint
            end
          in
          if tint != !cur_tint then begin
            let mask = find_tint t tint_table tint 0 in
            let cand = (mask :> int) land full in
            if cand = 0 then Sassoc.require_mask cache mask;
            cur_tint := tint;
            cur_mask := mask;
            cur_cand := cand;
            cur_stream := streaming && Hashtbl.mem t.streaming_tints tint
          end;
          cur_page := if where = 1 then page else -1
        end;
        let phys =
          match frame_map with
          | None -> addr
          | Some fm -> Vm.Frame_map.translate fm addr
        in
        let line = phys lsr line_shift in
        let tlb_cost = if !tlb_missed then tlb_miss_penalty else 0 in
        (match hook with
        | Blocking -> extra := !extra + tlb_cost
        | Events { engine; _ } -> Event.elapse engine (gap + tlb_cost));
        (* the outcome as [Sassoc.access_masked] codes it: 0 hit, 1 miss,
           3 miss with a writeback *)
        let code =
          if inline then begin
            incr probes;
            let set = line land set_mask in
            let tag = line lsr tag_shift in
            let base = set * ways in
            let write = Bigarray.Array1.unsafe_get kinds i = write_byte in
            let pw = Array.unsafe_get pred set in
            let way =
              if Array.unsafe_get tags (base + pw) = tag then pw
              else scan_ways tags ~base ~ways tag 0
            in
            if way >= 0 then begin
              if way <> pw then Array.unsafe_set pred set way;
              incr clock;
              Array.unsafe_set stamps (base + way) !clock;
              if write then Bytes.unsafe_set dirty (base + way) '\001';
              0
            end
            else begin
              incr misses;
              let vm = Array.unsafe_get vmask set in
              let cand = !cur_cand in
              let empties = cand land lnot vm in
              let way =
                if empties <> 0 then lowest_bit empties 0
                else begin
                  (* the smallest stamp among the mask's ways, the highest
                     way on a tie: a way outside the mask reads as
                     [max_int], and [d asr 62] is -1 exactly when [d] is
                     negative *)
                  let best = ref (-1) and best_stamp = ref max_int in
                  for w = ways - 1 downto 0 do
                    let stamp =
                      Array.unsafe_get stamps (base + w)
                      lor ((((cand lsr w) land 1) - 1) land max_int)
                    in
                    let d = stamp - !best_stamp in
                    let m = d asr 62 in
                    best := !best lxor ((!best lxor w) land m);
                    best_stamp := !best_stamp + (d land m)
                  done;
                  !best
                end
              in
              let s = base + way in
              let wb =
                if vm land (1 lsl way) <> 0 then begin
                  let old = (Array.unsafe_get tags s lsl tag_shift) lor set in
                  incr evictions;
                  evicted := old;
                  if Bytes.unsafe_get dirty s = '\001' then begin
                    incr writebacks;
                    written_back := old;
                    2
                  end
                  else begin
                    written_back := -1;
                    0
                  end
                end
                else begin
                  evicted := -1;
                  written_back := -1;
                  0
                end
              in
              Array.unsafe_set tags s tag;
              Array.unsafe_set vmask set (vm lor (1 lsl way));
              Array.unsafe_set pred set way;
              Bytes.unsafe_set dirty s (if write then '\001' else '\000');
              incr clock;
              Array.unsafe_set stamps s !clock;
              Array.unsafe_set fills way (Array.unsafe_get fills way + 1);
              1 lor wb
            end
          end
          else
            Sassoc.access_masked cache ~mask:!cur_mask
              ~kind:(Memtrace.Packed.kind_at kinds i) phys
        in
        if code = 0 then begin
          let retire =
            match hook with
            | Blocking -> 0
            | Events { engine; inject_merge_bug = false } ->
                Event.hit engine ~line
            | Events { engine; inject_merge_bug = true } ->
                let merges = Event.merges engine in
                let retire = Event.hit engine ~line in
                (* The planted [--inject-bug event] mutation: the buggy
                   merge path replays the merged request against the cache
                   when its fill lands, as if the MSHR had not recorded the
                   first reference — the second lookup double-counts the
                   access. *)
                if Event.merges engine > merges then
                  ignore
                    (Sassoc.access_masked cache ~mask:!cur_mask
                       ~kind:(Memtrace.Packed.kind_at kinds i) phys
                      : int);
                retire
          in
          (* the first use of a prefetched line fetches the next one *)
          if
            Hashtbl.length t.prefetch_tagged > 0
            && Hashtbl.mem t.prefetch_tagged line
          then begin
            Hashtbl.remove t.prefetch_tagged line;
            if
              !cur_stream
              && prefetch_next t hook ~line_shift ~addr ~mask:!cur_mask
            then incr prefetches
          end;
          retire
        end
        else begin
          (* the line comes from L2 when one is configured and holds it *)
          let l2_hit =
            match t.l2 with
            | None -> false
            | Some l2 ->
                let kind = Memtrace.Packed.kind_at kinds i in
                if Sassoc.access_coded l2 ~kind phys land 1 = 0 then begin
                  incr l2_hits;
                  true
                end
                else begin
                  incr l2_misses;
                  false
                end
          in
          let retire =
            match hook with
            | Blocking ->
                extra :=
                  !extra
                  + (if l2_hit then timing.Timing.l2_hit_cycles
                     else timing.Timing.miss_penalty)
                  + if code land 2 <> 0 then timing.Timing.writeback_penalty
                    else 0;
                0
            | Events { engine; _ } ->
                let victim =
                  if code land 2 <> 0 then
                    (if inline then !written_back
                     else Sassoc.writeback_line cache)
                    * line_size
                  else -1
                in
                Event.miss engine ~line ~addr:phys ~victim ~l2_hit
          in
          if !cur_stream && prefetch_next t hook ~line_shift ~addr ~mask:!cur_mask
          then incr prefetches;
          retire
        end
      end
      else begin
        (* a scratchpad or uncached access: it bypasses cache and TLB *)
        incr region_n;
        let cost =
          if where = 3 then begin
            incr scratchpad_n;
            timing.Timing.scratchpad_cycles
          end
          else timing.Timing.uncached_cycles
        in
        match hook with
        | Blocking ->
            extra := !extra + cost;
            0
        | Events { engine; _ } ->
            Event.elapse engine (gap + cost);
            Event.now engine
      end
    in
    if !win_last >= 0 then begin
      if retire > !win_retire then win_retire := retire;
      if i = !win_last then begin
        let latency =
          match hook with
          | Blocking ->
              blocking_clock ~hit_cycles ~gap_sum:!gap_sum ~region_n:!region_n
                ~extra:!extra (i + 1 - pos)
              - !win_open
          | Events _ -> !win_retire - !win_open
        in
        (match lat with None -> () | Some b -> Latency.Builder.push b latency);
        win_last := -1;
        incr next_req;
        win_first :=
          if !next_req < n_req then fst requests.(!next_req) else max_int
      end
    end
  done;
  if inline then begin
    stats.accesses <- stats.accesses + !probes;
    stats.hits <- stats.hits + (!probes - !misses);
    stats.misses <- stats.misses + !misses;
    stats.evictions <- stats.evictions + !evictions;
    stats.writebacks <- stats.writebacks + !writebacks;
    Sassoc.set_clock cache !clock;
    if !misses > 0 then
      Sassoc.set_last_install cache ~evicted:!evicted ~writeback:!written_back
  end;
  Vm.Tlb.note_hits v.tlb !tlb_hits;
  Vm.Tlb.note_misses v.tlb !tlb_misses;
  let n = stop - pos in
  t.instructions <- t.instructions + !gap_sum + n;
  t.memory_accesses <- t.memory_accesses + n;
  t.scratchpad_accesses <- t.scratchpad_accesses + !scratchpad_n;
  t.l2_hits <- t.l2_hits + !l2_hits;
  t.l2_misses <- t.l2_misses + !l2_misses;
  t.prefetches <- t.prefetches + !prefetches;
  match hook with
  | Blocking ->
      t.cycles <-
        t.cycles
        + blocking_clock ~hit_cycles ~gap_sum:!gap_sum ~region_n:!region_n
            ~extra:!extra n
  | Events { engine; _ } ->
      (* fold the drained clock and the MSHR/DRAM counters into [t] so run
         deltas pick them up like any other counter *)
      t.cycles <- t.cycles + Event.finish engine;
      t.mshr_merges <- t.mshr_merges + Event.merges engine;
      t.mshr_stalls <- t.mshr_stalls + Event.mshr_stalls engine;
      let d = Event.dram_stats engine in
      t.dram_row_hits <- t.dram_row_hits + d.Dram.hits;
      t.dram_row_conflicts <- t.dram_row_conflicts + d.Dram.conflicts

let run_with t replay =
  let before = snapshot t in
  t.cycles <- t.cycles + t.pending_setup_cycles;
  t.pending_setup_cycles <- 0;
  replay ();
  let after = snapshot t in
  {
    Run_stats.instructions = after.instructions - before.instructions;
    cycles = after.cycles - before.cycles;
    memory_accesses = after.memory_accesses - before.memory_accesses;
    scratchpad_accesses =
      after.scratchpad_accesses - before.scratchpad_accesses;
    tlb_hits = after.tlb_hits - before.tlb_hits;
    tlb_misses = after.tlb_misses - before.tlb_misses;
    l2_hits = after.l2_hits - before.l2_hits;
    l2_misses = after.l2_misses - before.l2_misses;
    prefetches = after.prefetches - before.prefetches;
    mshr_merges = after.mshr_merges - before.mshr_merges;
    mshr_stalls = after.mshr_stalls - before.mshr_stalls;
    dram_row_hits = after.dram_row_hits - before.dram_row_hits;
    dram_row_conflicts = after.dram_row_conflicts - before.dram_row_conflicts;
    cache = Cache.Stats.sub after.cache before.cache;
    requests = Latency.empty;
  }

let run t trace =
  run_with t (fun () -> Trace.iter (fun a -> ignore (access t a)) trace)

(* Every packed replay: one pass of [replay_loop], with per-request latency
   accounting when [requests] are given. *)
let replay ?requests t ~hook (p : Memtrace.Packed.t) =
  let lat =
    Option.map
      (fun r ->
        Latency.Builder.create ~initial_capacity:(max 16 (Array.length r)) ())
      requests
  in
  let requests = Option.value requests ~default:[||] in
  let stop = Memtrace.Packed.length p in
  Memtrace.Packed.check_kinds p ~pos:0 ~stop;
  let stats =
    run_with t (fun () -> replay_loop t ~hook ~requests ~lat ~pos:0 ~stop p)
  in
  match lat with
  | None -> stats
  | Some lat -> { stats with Run_stats.requests = Latency.Builder.build lat }

let check_spans ~who (p : Memtrace.Packed.t) requests =
  let n = Memtrace.Packed.length p in
  Array.iteri
    (fun i (start, stop) ->
      if start < 0 || start >= stop || stop > n then
        invalid_arg (who ^ ": request span out of bounds");
      if i > 0 && start < snd requests.(i - 1) then
        invalid_arg (who ^ ": request spans must be sorted and disjoint"))
    requests;
  requests

let events_hook ?(inject_merge_bug = false) t events =
  Events { engine = Event.create t.cfg.timing events; inject_merge_bug }

let run_packed t p = replay t ~hook:Blocking p

let run_packed_requests t p ~requests =
  let requests = check_spans ~who:"System.run_packed_requests" p requests in
  replay ~requests t ~hook:Blocking p

let run_packed_events ?inject_merge_bug t ~events p =
  replay t ~hook:(events_hook ?inject_merge_bug t events) p

let run_packed_requests_events t ~events p ~requests =
  let requests =
    check_spans ~who:"System.run_packed_requests_events" p requests
  in
  replay ~requests t ~hook:(events_hook t events) p

(* One slice of a packed trace on the blocking loop: like folding [access]
   over it, with no snapshot — the round-robin scheduler makes one call per
   slice, often of a handful of accesses. *)
let replay_range t p ~pos ~stop =
  if pos < 0 || pos > stop || stop > Memtrace.Packed.length p then
    invalid_arg "System.replay_range: range out of bounds";
  Memtrace.Packed.check_kinds p ~pos ~stop;
  let before = t.cycles in
  replay_loop t ~hook:Blocking ~requests:[||] ~lat:None ~pos ~stop p;
  t.cycles - before

let total t = snapshot t
let flush_cache t = Sassoc.flush t.cache
let flush_tlb t = Vm.Tlb.flush (Vm.Mapping.tlb t.mapping)
