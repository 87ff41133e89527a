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

(* The batched replay loop's state ([replay_loop]): the page memo and its
   deferred TLB touches, the tint -> mask cache, and the counters the
   loop's helpers accrue. One per system, allocated on its first packed
   replay and reset at the start of every replay. *)
let memo_size = 128
let memo_mask = memo_size - 1
let tint_cache_size = 8

(* the [m_page] of a memo slot that holds no page *)
let vacant = min_int

type loop = {
  page_shift : int;
  line_shift : int;
  (* direct-mapped page memo: slot = low bits of the page number, one
     compare per probe. Collisions merely evict the memo entry (the next
     access to that page pays a real — and guaranteed to hit — TLB
     lookup); correctness never depends on memo capacity. *)
  m_page : int array;
  m_seq : int array; (* last use, as an access index *)
  m_mask : Bitmask.t array;
  m_stream : bool array;
  m_pending : bool array; (* the slot's LRU touch is deferred *)
  pending_slots : int array; (* deferred slots, in first-pending order *)
  mutable pending_count : int;
  m_used : bool array; (* installed during the current replay *)
  used_slots : int array;
  mutable used_count : int;
  tint_keys : Vm.Tint.t array;
  tint_masks : Bitmask.t array;
  mutable tints_n : int;
  mutable tlb_missed : bool; (* whether the last real lookup missed *)
  mutable extra : int; (* [Blocking] charges beyond gaps and hit cycles *)
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable prefetches : int;
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
  mutable loop : loop option;
}

let create cfg =
  {
    cfg;
    cache = Sassoc.create cfg.cache;
    l2 = Option.map Sassoc.create cfg.l2;
    l2_hits = 0;
    l2_misses = 0;
    prefetches = 0;
    streaming_tints = Hashtbl.create 4;
    prefetch_tagged = Hashtbl.create 64;
    mapping =
      Vm.Mapping.create ~tlb_entries:cfg.tlb_entries ~page_size:cfg.page_size
        ~columns:cfg.cache.Sassoc.ways ();
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
    loop = None;
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

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

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

(* The batched replay loop behind every packed replay. Byte-identical to
   folding [access] over the same accesses (the machine-level differential
   soak pins this), but organized around the invariant that during one
   replay the page table, tint table, regions, frame map and streaming set
   are all constant — only the TLB mutates, and only through our own
   lookups. Hence:

   - a small K-entry memo caches (page, mask, streaming?) for recently seen
     pages. A memo hit is a guaranteed TLB hit — memo entries are
     invalidated whenever a real lookup evicts their page, so memoized
     implies resident — and costs no TLB lookup at all: the hit is credited
     in bulk via [Tlb.note_hits] and its LRU touch is {e deferred}. A run
     of guaranteed hits only reorders the touched entries to the front of
     the LRU, so replaying one touch per memoized page, oldest last-use
     first ([Tlb.touch_resident]), immediately before the next real TLB
     operation reproduces the exact LRU state the per-access path builds;
   - tint -> mask is constant too, so a page's mask is memoized with it;
   - counters accrue in locals and in the loop state and land in [t]'s
     fields once at the end (every counter is a sum). Under [Blocking] the
     cycle count is derived rather than accumulated: every cached access
     pays [hit_cycles], so the loop tracks only the gap sum, the
     region-access count and the extra charges, and rebuilds the running
     count when a request window opens or closes.

   Pages overlapping a scratchpad/uncached region are never memoized:
   region membership is per address, so each access on such a page tests
   it, and the cached ones pay a real TLB lookup. Streaming pages and hits
   while prefetch-tagged lines are outstanding take the prefetch steps of
   the scalar path; their TLB behaviour is one lookup per access like any
   other page, so they memoize fine.

   The invariant holds only within one replay: between two, the caller may
   flush the TLB, re-tint pages or remap tints. So every replay starts from
   an empty memo and tint cache and flushes its deferred touches before it
   returns; nothing cached survives to need invalidating. What survives is
   the storage ([loop], one per system): a replay of a handful of accesses
   — a round-robin slice — pays a few field resets, not an allocation of
   the memo and the loop's helpers.

   [requests] are validated (start, stop) spans. A window opens at its
   first access and closes after its last: under [Blocking] its latency is
   the cycle delta across it, under [Events] the latest retire among its
   accesses minus the first access's issue time. *)
let loop_state t =
  match t.loop with
  | Some s -> s
  | None ->
      let s =
        {
          page_shift = log2 t.cfg.page_size;
          line_shift = log2 t.cfg.cache.Sassoc.line_size;
          m_page = Array.make memo_size vacant;
          m_seq = Array.make memo_size 0;
          m_mask = Array.make memo_size Bitmask.empty;
          m_stream = Array.make memo_size false;
          m_pending = Array.make memo_size false;
          pending_slots = Array.make memo_size 0;
          pending_count = 0;
          m_used = Array.make memo_size false;
          used_slots = Array.make memo_size 0;
          used_count = 0;
          tint_keys = Array.make tint_cache_size Vm.Tint.default;
          tint_masks = Array.make tint_cache_size Bitmask.empty;
          tints_n = 0;
          tlb_missed = false;
          extra = 0;
          l2_hits = 0;
          l2_misses = 0;
          prefetches = 0;
        }
      in
      t.loop <- Some s;
      s

(* Empty the memo, the pending touches and the tint cache, and zero the
   counters: only the slots the previous replay installed are reset. *)
let reset_loop s =
  for k = 0 to s.used_count - 1 do
    let j = Array.unsafe_get s.used_slots k in
    s.m_page.(j) <- vacant;
    s.m_pending.(j) <- false;
    s.m_used.(j) <- false
  done;
  s.used_count <- 0;
  s.pending_count <- 0;
  s.tints_n <- 0;
  s.extra <- 0;
  s.l2_hits <- 0;
  s.l2_misses <- 0;
  s.prefetches <- 0

(* Replay the deferred LRU touches, oldest last use first. *)
let flush_touches s tlb =
  let c = s.pending_count in
  if c > 0 then begin
    let slots = s.pending_slots and m_seq = s.m_seq in
    (* insertion sort by last-use seq, ascending; runs are short *)
    for a = 1 to c - 1 do
      let sl = slots.(a) in
      let key = m_seq.(sl) in
      let b = ref (a - 1) in
      while !b >= 0 && m_seq.(slots.(!b)) > key do
        slots.(!b + 1) <- slots.(!b);
        decr b
      done;
      slots.(!b + 1) <- sl
    done;
    for a = 0 to c - 1 do
      let sl = slots.(a) in
      s.m_pending.(sl) <- false;
      Vm.Tlb.touch_resident tlb s.m_page.(sl)
    done;
    s.pending_count <- 0
  end

(* A real lookup on [page]: returns its tint and sets [tlb_missed]; an
   evicted page leaves the memo. *)
let lookup s tlb page =
  let tint = Vm.Tlb.lookup_page_quick tlb page in
  let r = Vm.Tlb.last_lookup tlb in
  s.tlb_missed <- r <> Cache.Lru_set.hit;
  if r >= 0 then begin
    let sl = r land memo_mask in
    if s.m_page.(sl) = r then s.m_page.(sl) <- vacant
  end;
  tint

(* Install [page] in memo slot [j], whose last use is access [i]. *)
let memoize s j ~page ~i ~mask ~stream =
  if not (Array.unsafe_get s.m_used j) then begin
    Array.unsafe_set s.m_used j true;
    Array.unsafe_set s.used_slots s.used_count j;
    s.used_count <- s.used_count + 1
  end;
  s.m_page.(j) <- page;
  s.m_seq.(j) <- i;
  s.m_mask.(j) <- mask;
  s.m_stream.(j) <- stream;
  s.m_pending.(j) <- false

(* tint -> mask is constant during a replay: the masks of the first few
   tints met are kept, so the tint table (a string-keyed hash) is consulted
   about once per tint *)
let rec find_tint s tint_table tint i =
  if i >= s.tints_n then begin
    let m = Vm.Tint_table.lookup tint_table tint in
    if i < tint_cache_size then begin
      s.tint_keys.(i) <- tint;
      s.tint_masks.(i) <- m;
      s.tints_n <- i + 1
    end;
    m
  end
  else if s.tint_keys.(i) == tint || Vm.Tint.equal s.tint_keys.(i) tint then
    s.tint_masks.(i)
  else find_tint s tint_table tint (i + 1)

(* [streaming]: whether any tint streams at all *)
let is_stream t ~streaming tint =
  streaming && Hashtbl.mem t.streaming_tints tint

(* Stream prefetch (Section 2): tagged next-line prefetching into the
   stream's own columns, stopping where the next line's mask differs. *)
let prefetch_next t s hook ~addr ~mask =
  let next = addr + t.cfg.cache.Sassoc.line_size in
  let next_phys = physical t next in
  if
    Bitmask.equal (Vm.Mapping.mask_of_quiet t.mapping next) mask
    && Sassoc.fill t.cache ~mask next_phys
  then begin
    Hashtbl.replace t.prefetch_tagged (next_phys lsr s.line_shift) ();
    s.prefetches <- s.prefetches + 1;
    match hook with
    | Blocking -> ()
    | Events { engine; _ } -> Event.prefetch engine ~addr:next_phys
  end

(* The cached half of one access after VM resolution; returns the retire
   time under [Events] (0 under [Blocking]). *)
let cached_access t s hook ~addr ~kind ~gap ~tlb_missed ~mask ~stream =
  let timing = t.cfg.timing in
  let cache = t.cache in
  let phys = physical t addr in
  (match hook with
  | Blocking ->
      if tlb_missed then s.extra <- s.extra + timing.Timing.tlb_miss_penalty
  | Events { engine; _ } ->
      Event.elapse engine
        (if tlb_missed then gap + timing.Timing.tlb_miss_penalty else gap));
  let code = Sassoc.access_masked cache ~mask ~kind phys in
  if code = 0 then begin
    let retire =
      match hook with
      | Blocking -> 0
      | Events { engine; inject_merge_bug = false } ->
          Event.hit engine ~line:(phys lsr s.line_shift)
      | Events { engine; inject_merge_bug = true } ->
          let merges = Event.merges engine in
          let retire = Event.hit engine ~line:(phys lsr s.line_shift) in
          (* The planted [--inject-bug event] mutation: the buggy merge
             path replays the merged request against the cache when its
             fill lands, as if the MSHR had not recorded the first
             reference — the second lookup double-counts the access. *)
          if Event.merges engine > merges then
            ignore (Sassoc.access_masked cache ~mask ~kind phys : int);
          retire
    in
    (* the first use of a prefetched line fetches the next one *)
    if Hashtbl.length t.prefetch_tagged > 0 then begin
      let phys_line = phys lsr s.line_shift in
      if Hashtbl.mem t.prefetch_tagged phys_line then begin
        Hashtbl.remove t.prefetch_tagged phys_line;
        if stream then prefetch_next t s hook ~addr ~mask
      end
    end;
    retire
  end
  else begin
    (* the line comes from L2 when one is configured and holds it *)
    let l2_hit =
      match t.l2 with
      | None -> false
      | Some l2c ->
          if Sassoc.access_coded l2c ~kind phys land 1 = 0 then begin
            s.l2_hits <- s.l2_hits + 1;
            true
          end
          else begin
            s.l2_misses <- s.l2_misses + 1;
            false
          end
    in
    let retire =
      match hook with
      | Blocking ->
          s.extra <-
            s.extra
            + (if l2_hit then timing.Timing.l2_hit_cycles
               else timing.Timing.miss_penalty)
            + if code land 2 <> 0 then timing.Timing.writeback_penalty else 0;
          0
      | Events { engine; _ } ->
          let victim =
            if code land 2 <> 0 then
              Sassoc.writeback_line cache * t.cfg.cache.Sassoc.line_size
            else -1
          in
          Event.miss engine ~line:(phys lsr s.line_shift) ~addr:phys ~victim
            ~l2_hit
    in
    if stream then prefetch_next t s hook ~addr ~mask;
    retire
  end

(* The [Blocking] cycle count after [done_] accesses of a replay, relative
   to its entry. *)
let blocking_clock s ~hit_cycles ~gap_sum ~region_n done_ =
  gap_sum + ((done_ - region_n) * hit_cycles) + s.extra

(* A scratchpad or uncached access: it bypasses cache and TLB. *)
let region_access s hook ~gap ~cost =
  match hook with
  | Blocking ->
      s.extra <- s.extra + cost;
      0
  | Events { engine; _ } ->
      Event.elapse engine (gap + cost);
      Event.now engine

let replay_loop t ~hook ~requests ~lat ~pos ~stop (p : Memtrace.Packed.t) =
  let s = loop_state t in
  reset_loop s;
  let addrs = Memtrace.Packed.raw_addrs p in
  let gaps = Memtrace.Packed.raw_gaps p in
  let kinds = Memtrace.Packed.raw_kinds p in
  let timing = t.cfg.timing in
  let hit_cycles = timing.Timing.hit_cycles in
  let tlb = Vm.Mapping.tlb t.mapping in
  let page_size = t.cfg.page_size in
  let page_shift = s.page_shift in
  let m_page = s.m_page and m_seq = s.m_seq and m_mask = s.m_mask in
  let m_stream = s.m_stream and m_pending = s.m_pending in
  let tint_table = Vm.Mapping.tint_table t.mapping in
  let streaming = Hashtbl.length t.streaming_tints > 0 in
  let regions = t.scratchpads != [] || t.uncached != [] in
  (* local counters, flushed into [t] after the loop *)
  let gap_sum = ref 0 in
  let region_n = ref 0 in
  let scratchpad_n = ref 0 in
  let memo_hits = ref 0 in
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
    let kind = Memtrace.Packed.kind_at kinds i in
    if i = !win_first then begin
      let _, last = requests.(!next_req) in
      win_last := last - 1;
      win_open :=
        (match hook with
        | Blocking ->
            blocking_clock s ~hit_cycles ~gap_sum:!gap_sum
              ~region_n:!region_n (i - pos)
        | Events { engine; _ } -> Event.now engine);
      win_retire := !win_open
    end;
    gap_sum := !gap_sum + gap;
    let page = addr lsr page_shift in
    let j = page land memo_mask in
    let retire =
      if Array.unsafe_get m_page j = page then begin
        (* memoized page: guaranteed TLB hit (credited in bulk after the
           loop) with its LRU touch deferred *)
        Array.unsafe_set m_seq j i;
        if not (Array.unsafe_get m_pending j) then begin
          Array.unsafe_set m_pending j true;
          Array.unsafe_set s.pending_slots s.pending_count j;
          s.pending_count <- s.pending_count + 1
        end;
        incr memo_hits;
        cached_access t s hook ~addr ~kind ~gap ~tlb_missed:false
          ~mask:(Array.unsafe_get m_mask j)
          ~stream:(Array.unsafe_get m_stream j)
      end
      else begin
        flush_touches s tlb;
        let base = page lsl page_shift in
        if
          regions
          && (region_overlaps t.scratchpads ~base ~size:page_size
             || region_overlaps t.uncached ~base ~size:page_size)
        then begin
          (* mixed page: region membership is per address; the cached
             accesses pay a real lookup and the page is never memoized *)
          if in_region t.scratchpads addr then begin
            incr scratchpad_n;
            incr region_n;
            region_access s hook ~gap ~cost:timing.Timing.scratchpad_cycles
          end
          else if in_region t.uncached addr then begin
            incr region_n;
            region_access s hook ~gap ~cost:timing.Timing.uncached_cycles
          end
          else begin
            let tint = lookup s tlb page in
            cached_access t s hook ~addr ~kind ~gap ~tlb_missed:s.tlb_missed
              ~mask:(find_tint s tint_table tint 0)
              ~stream:(is_stream t ~streaming tint)
          end
        end
        else begin
          (* memo miss on a pure page: the real lookup, then install the
             page in the memo *)
          let tint = lookup s tlb page in
          let mask = find_tint s tint_table tint 0 in
          let stream = is_stream t ~streaming tint in
          memoize s j ~page ~i ~mask ~stream;
          cached_access t s hook ~addr ~kind ~gap ~tlb_missed:s.tlb_missed
            ~mask ~stream
        end
      end
    in
    if !win_last >= 0 then begin
      if retire > !win_retire then win_retire := retire;
      if i = !win_last then begin
        let latency =
          match hook with
          | Blocking ->
              blocking_clock s ~hit_cycles ~gap_sum:!gap_sum
                ~region_n:!region_n (i + 1 - pos)
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
  flush_touches s tlb;
  let n = stop - pos in
  t.instructions <- t.instructions + !gap_sum + n;
  t.memory_accesses <- t.memory_accesses + n;
  t.scratchpad_accesses <- t.scratchpad_accesses + !scratchpad_n;
  t.l2_hits <- t.l2_hits + s.l2_hits;
  t.l2_misses <- t.l2_misses + s.l2_misses;
  t.prefetches <- t.prefetches + s.prefetches;
  Vm.Tlb.note_hits tlb !memo_hits;
  match hook with
  | Blocking ->
      t.cycles <-
        t.cycles
        + blocking_clock s ~hit_cycles ~gap_sum:!gap_sum ~region_n:!region_n n
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
