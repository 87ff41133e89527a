let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

type t = {
  translate : (int -> int) option;
  line_shift : int;
  set_mask : int;
  n_sets : int;
  w : int;
  (* Per-set recency stacks, flattened: slot [set * w + d] holds the line at
     depth d (most-recent first), or -1 when the stack is shorter. *)
  lines : int array;
  (* dirty_min of the line in the same slot: the line is dirty in every
     a-way cache with a >= dirty_min. Sentinel w + 1 = clean everywhere
     tracked. Meaningless in empty slots. *)
  dirty_min : int array;
  len : int array;  (* stack length per set *)
  (* counters *)
  hist : int array;  (* exact depth d re-accesses, 0 <= d < w *)
  cross : int array;  (* cross.(a) = boundary-a crossings = evictions at a; 1..w *)
  wbs : int array;  (* wbs.(a) = writebacks at associativity a; 1..w *)
  mutable cold : int;
  mutable overflow : int;
  mutable n_accesses : int;
  seen : Line_set.t;  (* lines ever referenced (cold detection) *)
}

let create ?translate ~line_size ~sets ~max_ways () =
  if not (is_power_of_two line_size) then
    invalid_arg "Stack_dist.create: line_size must be a power of two";
  if not (is_power_of_two sets) then
    invalid_arg "Stack_dist.create: sets must be a power of two";
  if max_ways < 1 then invalid_arg "Stack_dist.create: max_ways must be >= 1";
  {
    translate;
    line_shift = log2 line_size;
    set_mask = sets - 1;
    n_sets = sets;
    w = max_ways;
    lines = Array.make (sets * max_ways) (-1);
    dirty_min = Array.make (sets * max_ways) (max_ways + 1);
    len = Array.make sets 0;
    hist = Array.make max_ways 0;
    cross = Array.make (max_ways + 1) 0;
    wbs = Array.make (max_ways + 1) 0;
    cold = 0;
    overflow = 0;
    n_accesses = 0;
    seen = Line_set.create ();
  }

let max_ways t = t.w
let sets t = t.n_sets

(* The stack update shared by demand accesses and preloads. [write] marks the
   accessed line dirty at every associativity; [counted] says whether the
   reference contributes to the distance histogram and access count
   (preloads do not, exactly like a pre-run [Sassoc.access] burst that a
   snapshot delta excludes — but the evictions/writebacks their shifts cause
   at each associativity are still crossings of live state, which
   [reset_counts] then discards along with everything else). *)
(* [traced] reports what a [traced]-way cache saw on this one access: bit 0
   set iff it hit (depth < traced), bit 1 set iff it wrote a dirty victim
   back (boundary-[traced] crossing with [dirty_min <= traced] during this
   access's shift). [traced = 0] disables reporting; the stack update is
   identical either way. *)
(* [touch_raw] expects an already-translated address: the sharded feeds
   translate once to pick the owning shard and must not pay (or apply) the
   translation twice. *)
let touch_raw t ~write ~counted ~traced addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let w = t.w in
  let base = set * w in
  let lines = t.lines in
  let l = Array.unsafe_get t.len set in
  (* depth of the accessed line, -1 when absent *)
  let d = ref (-1) in
  let i = ref 0 in
  while !d < 0 && !i < l do
    if Array.unsafe_get lines (base + !i) = line then d := !i;
    incr i
  done;
  let res = ref (if traced > 0 && !d >= 0 && !d < traced then 1 else 0) in
  if counted then t.n_accesses <- t.n_accesses + 1;
  (* A line in the stack has been seen; only a stack miss asks the set,
     whose answer splits it into cold and overflow. *)
  if !d >= 0 then begin
    if counted then t.hist.(!d) <- t.hist.(!d) + 1
  end
  else if Line_set.add t.seen line then begin
    if counted then t.cold <- t.cold + 1
  end
  else if counted then t.overflow <- t.overflow + 1;
  (* the accessed line's own dirtiness before the shift overwrites its slot *)
  let old_dirty = if !d >= 0 then Array.unsafe_get t.dirty_min (base + !d) else w + 1 in
  (* Shift positions 0..shift-1 down one. The line leaving position a-1 for
     position a is evicted from the a-way cache (one boundary crossing); if
     dirty there, that is its writeback, after which it is clean there. The
     line leaving position w-1 falls off the stack entirely. *)
  let shift = if !d >= 0 then !d else l in
  for j = shift - 1 downto 0 do
    let a = j + 1 in
    t.cross.(a) <- t.cross.(a) + 1;
    let dm = Array.unsafe_get t.dirty_min (base + j) in
    let dm =
      if dm <= a then begin
        t.wbs.(a) <- t.wbs.(a) + 1;
        if a = traced then res := !res lor 2;
        a + 1
      end
      else dm
    in
    if a < w then begin
      Array.unsafe_set lines (base + a) (Array.unsafe_get lines (base + j));
      Array.unsafe_set t.dirty_min (base + a) dm
    end
  done;
  Array.unsafe_set lines base line;
  Array.unsafe_set t.dirty_min base
    (if write then 1
     else if !d >= 0 then min (w + 1) (max old_dirty (!d + 1))
     else w + 1);
  if !d < 0 && l < w then Array.unsafe_set t.len set (l + 1);
  !res

let touch_traced t ~write ~counted ~traced addr =
  let addr = match t.translate with None -> addr | Some f -> f addr in
  touch_raw t ~write ~counted ~traced addr

let touch t ~write ~counted addr =
  ignore (touch_traced t ~write ~counted ~traced:0 addr)

let access t ~kind addr =
  touch t ~write:(kind = Memtrace.Access.Write) ~counted:true addr

let preload t addr = touch t ~write:false ~counted:false addr

(* Every packed feed decodes its whole range with the trace's one kind
   decoder before it touches an engine, so a corrupt kind byte is rejected
   with the engine as it was. *)
let kind_column p =
  Memtrace.Packed.check_kinds p ~pos:0 ~stop:(Memtrace.Packed.length p);
  Memtrace.Packed.raw_kinds p

let is_write kinds i = Memtrace.Packed.kind_at kinds i = Memtrace.Access.Write

let access_packed t p =
  let n = Memtrace.Packed.length p in
  let addrs = Memtrace.Packed.raw_addrs p in
  let kinds = kind_column p in
  for i = 0 to n - 1 do
    touch t
      ~write:(is_write kinds i)
      ~counted:true
      (Bigarray.Array1.unsafe_get addrs i)
  done

let reset_counts t =
  Array.fill t.hist 0 t.w 0;
  Array.fill t.cross 0 (t.w + 1) 0;
  Array.fill t.wbs 0 (t.w + 1) 0;
  t.cold <- 0;
  t.overflow <- 0;
  t.n_accesses <- 0

let accesses t = t.n_accesses
let cold_misses t = t.cold
let overflows t = t.overflow
let distinct_lines t = Line_set.length t.seen
let histogram t = Array.copy t.hist

let check_ways t a name =
  if a < 1 || a > t.w then
    invalid_arg (Printf.sprintf "Stack_dist.%s: ways %d outside 1..%d" name a t.w)

let access_traced t ~kind ~ways addr =
  check_ways t ways "access_traced";
  touch_traced t
    ~write:(kind = Memtrace.Access.Write)
    ~counted:true ~traced:ways addr

let misses t ~ways =
  check_ways t ways "misses";
  let deep = ref (t.cold + t.overflow) in
  for d = ways to t.w - 1 do
    deep := !deep + t.hist.(d)
  done;
  !deep

let hits t ~ways = t.n_accesses - misses t ~ways

let evictions t ~ways =
  check_ways t ways "evictions";
  t.cross.(ways)

let writebacks t ~ways =
  check_ways t ways "writebacks";
  t.wbs.(ways)

let miss_curve t =
  let c = Array.make (t.w + 1) 0 in
  c.(t.w) <- t.cold + t.overflow;
  for a = t.w - 1 downto 1 do
    c.(a) <- c.(a + 1) + t.hist.(a)
  done;
  c.(0) <- t.n_accesses;
  c

let mrc t =
  let c = miss_curve t in
  if t.n_accesses = 0 then Array.map (fun _ -> 0.) c
  else
    let n = float_of_int t.n_accesses in
    Array.map (fun m -> float_of_int m /. n) c

let stats t ~ways =
  let s = Stats.create ~ways in
  s.Stats.accesses <- t.n_accesses;
  s.Stats.misses <- misses t ~ways;
  s.Stats.hits <- t.n_accesses - s.Stats.misses;
  s.Stats.evictions <- evictions t ~ways;
  s.Stats.writebacks <- writebacks t ~ways;
  s

let per_tag_of_packed ?translate ~line_size ~sets ~max_ways p =
  let global = create ?translate ~line_size ~sets ~max_ways () in
  let table = Memtrace.Packed.var_table p in
  let engines =
    Array.map
      (fun name -> (name, create ?translate ~line_size ~sets ~max_ways ()))
      table
  in
  let n = Memtrace.Packed.length p in
  let addrs = Memtrace.Packed.raw_addrs p in
  let kinds = kind_column p in
  let tags = Memtrace.Packed.raw_tags p in
  for i = 0 to n - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i in
    let write = is_write kinds i in
    touch global ~write ~counted:true addr;
    let tag = Bigarray.Array1.unsafe_get tags i in
    if tag >= 0 then touch (snd engines.(tag)) ~write ~counted:true addr
  done;
  (global, engines)

(* {2 Set-sharded parallel sweeps}

   LRU stack distances are exactly independent per cache set: an access at
   address [a] only reads and writes the recency stack of the set [a] maps
   to, and every counter is a sum of per-set contributions. Partitioning the
   set index space into [K] shards ([set mod K]) therefore makes the Mattson
   pass embarrassingly parallel — each shard engine sees exactly the
   accesses of the sets it owns, and the merged counters are pure additions
   of disjoint per-set counts, so the merged readings are byte-identical to
   the serial engine's for any [K]. The cold/overflow split survives too:
   a line belongs to exactly one set, so the shards' [seen] lines are
   disjoint and their union is the serial set. Their blocks are not: a
   32-line block spans 32 consecutive sets, which [set mod K] deals out to
   every shard, so the union ORs the blocks' words and counts only the
   bits that are new. *)

let check_shard ~shards ~shard ~sets name =
  if shards < 1 then
    invalid_arg
      (Printf.sprintf "Stack_dist.%s: shards must be >= 1, got %d" name shards);
  if shards > sets then
    invalid_arg
      (Printf.sprintf "Stack_dist.%s: more shards (%d) than sets (%d)" name
         shards sets);
  if shard < 0 || shard >= shards then
    invalid_arg
      (Printf.sprintf "Stack_dist.%s: shard %d outside 0..%d" name shard
         (shards - 1))

let access_packed_sharded t ~shards ~shard p =
  check_shard ~shards ~shard ~sets:t.n_sets "access_packed_sharded";
  let n = Memtrace.Packed.length p in
  let addrs = Memtrace.Packed.raw_addrs p in
  let kinds = kind_column p in
  for i = 0 to n - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i in
    let taddr = match t.translate with None -> addr | Some f -> f addr in
    if ((taddr lsr t.line_shift) land t.set_mask) mod shards = shard then
      ignore
        (touch_raw t
           ~write:(is_write kinds i)
           ~counted:true ~traced:0 taddr)
  done

let merge_into dst src =
  if dst == src then
    invalid_arg "Stack_dist.merge_into: cannot merge an engine into itself";
  if
    dst.line_shift <> src.line_shift
    || dst.n_sets <> src.n_sets
    || dst.w <> src.w
  then invalid_arg "Stack_dist.merge_into: engine geometries differ";
  let w = dst.w in
  for set = 0 to dst.n_sets - 1 do
    if src.len.(set) > 0 then begin
      if dst.len.(set) > 0 then
        invalid_arg
          (Printf.sprintf
             "Stack_dist.merge_into: both engines touched set %d (shards \
              must own disjoint sets)"
             set);
      let base = set * w in
      Array.blit src.lines base dst.lines base w;
      Array.blit src.dirty_min base dst.dirty_min base w;
      dst.len.(set) <- src.len.(set)
    end
  done;
  for d = 0 to w - 1 do
    dst.hist.(d) <- dst.hist.(d) + src.hist.(d)
  done;
  for a = 0 to w do
    dst.cross.(a) <- dst.cross.(a) + src.cross.(a);
    dst.wbs.(a) <- dst.wbs.(a) + src.wbs.(a)
  done;
  dst.cold <- dst.cold + src.cold;
  dst.overflow <- dst.overflow + src.overflow;
  dst.n_accesses <- dst.n_accesses + src.n_accesses;
  Line_set.union_into dst.seen src.seen

(* Chunked [Packed.sub] views keep every worker streaming the (possibly
   mmap'd) columns a bounded window at a time, the same access pattern the
   out-of-core serial sweep has — the views are O(1), nothing is copied. *)
let shard_chunk = 1 lsl 16

let feed_sharded_chunked t ~shards ~shard p =
  let n = Memtrace.Packed.length p in
  let pos = ref 0 in
  while !pos < n do
    let len = min shard_chunk (n - !pos) in
    access_packed_sharded t ~shards ~shard (Memtrace.Packed.sub p ~pos:!pos ~len);
    pos := !pos + len
  done

let of_packed_parallel ?translate ?on_shard ~jobs ~line_size ~sets ~max_ways p
    =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf
         "Stack_dist.of_packed_parallel: jobs must be a positive domain \
          count, got %d"
         jobs);
  if jobs > sets then
    invalid_arg
      (Printf.sprintf
         "Stack_dist.of_packed_parallel: more shards (jobs=%d) than sets (%d)"
         jobs sets);
  let note shard t =
    match on_shard with
    | Some f -> f ~shard ~accesses:(accesses t)
    | None -> ()
  in
  if jobs = 1 then begin
    let t = create ?translate ~line_size ~sets ~max_ways () in
    access_packed t p;
    note 0 t;
    t
  end
  else begin
    (* validated whole before any domain starts: an error names the access
       by its index in [p], not in a chunk *)
    ignore (kind_column p);
    let worker shard () =
      let t = create ?translate ~line_size ~sets ~max_ways () in
      feed_sharded_chunked t ~shards:jobs ~shard p;
      t
    in
    let domains =
      Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    let t0 = worker 0 () in
    note 0 t0;
    Array.iteri
      (fun k d ->
        let tk = Domain.join d in
        note (k + 1) tk;
        merge_into t0 tk)
      domains;
    t0
  end

(* {2 Spatially-hashed sampled stack distances}

   SHARDS (Waldspurger et al., FAST '15) keeps a reference iff
   [hash(location) < T] and scales every count by [1/T] — the sampled
   references are an unbiased spatial subpopulation, so the scaled depth
   histogram estimates the exact one. A set-associative Mattson engine has a
   natural sampling unit one level up: hashing individual *lines* would leave
   each set's recency stack with holes (a sampled line's depth would be its
   rank among sampled lines only, garbage at small associativity), whereas
   hashing *sets* keeps every selected set's stack exact. Sets are symmetric
   interleaved slices of the address space, so a hashed subset of them is
   exactly SHARDS' spatial subpopulation, and the per-distance counts of the
   selected sets scaled by [n_sets / selected] estimate the full-trace
   counts.

   Selection is the prefix of the sets ordered by (hash, set): lowering the
   rate can only shrink the prefix, so the sample locations at a lower rate
   are a subset of those at a higher one (SHARDS' threshold-monotonicity,
   pinned by a qcheck property). The fixed-budget variant counts distinct
   sampled lines across the selected sets and, when the budget is exceeded,
   evicts the selected set with the largest hash — lowering the effective
   threshold T to that hash, with the evicted set's entire contribution
   (counts and distinct lines) leaving the estimate, which is the
   set-granular form of SHARDS' rescaling-on-eviction: estimates are always
   computed from the currently selected sets alone. *)

(* One stateless splitmix64-style draw in [0,1) per set, seeded: the same
   mixer as [Workloads.Prng] (this library sits below it), applied to the
   set index. *)
let set_hash ~seed set =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int (set + 1)) 0x9E3779B97F4A7C15L)
      (Int64.of_int seed)
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

module Sampled = struct
  type exact = t

  (* shadowed below by the sampled reading of the same name *)
  let exact_accesses : exact -> int = accesses
  let merge_exact = merge_into

  type entry = {
    engine : exact;
    set : int;
    hash : float;
    mutable distinct : int; (* cached [distinct_lines engine] *)
  }

  type t = {
    translate : (int -> int) option;
    line_shift : int;
    set_mask : int;
    n_sets : int;
    w : int;
    rate : float; (* nominal, as requested *)
    min_sets : int; (* eviction floor: budget adaptation never goes below *)
    budget : int option;
    entries : entry array; (* prefix positions; only [0 .. sel_len-1] live *)
    pos_of_set : int array; (* set -> prefix position, -1 unselected *)
    mutable sel_len : int;
    mutable threshold : float; (* effective T after budget adaptation *)
    mutable total_distinct : int;
    mutable offered : int; (* counted accesses, sampled or not *)
    mutable evictions : int; (* budget-driven set evictions *)
  }

  let create ?translate ?(seed = 0) ?(min_sets = 1) ?budget ~rate ~line_size
      ~sets ~max_ways () =
    if not (rate > 0. && rate <= 1.) then
      invalid_arg "Stack_dist.Sampled.create: rate must be in (0, 1]";
    if min_sets < 1 then
      invalid_arg "Stack_dist.Sampled.create: min_sets must be >= 1";
    (match budget with
    | Some b when b < 1 ->
        invalid_arg "Stack_dist.Sampled.create: budget must be >= 1"
    | _ -> ());
    if not (is_power_of_two sets) then
      invalid_arg "Stack_dist.Sampled.create: sets must be a power of two";
    if not (is_power_of_two line_size) then
      invalid_arg "Stack_dist.Sampled.create: line_size must be a power of two";
    if max_ways < 1 then
      invalid_arg "Stack_dist.Sampled.create: max_ways must be >= 1";
    let hashes = Array.init sets (fun s -> set_hash ~seed s) in
    let order = Array.init sets (fun s -> s) in
    Array.sort
      (fun a b ->
        match compare hashes.(a) hashes.(b) with
        | 0 -> compare a b
        | c -> c)
      order;
    let below = ref 0 in
    Array.iter (fun h -> if h < rate then incr below) hashes;
    let sel_len = max 1 (min sets (max min_sets !below)) in
    let entries =
      Array.init sel_len (fun p ->
          let set = order.(p) in
          {
            (* the wrapper translates and routes; each selected set is an
               exact single-set engine over already-translated addresses *)
            engine = create ~line_size ~sets:1 ~max_ways ();
            set;
            hash = hashes.(set);
            distinct = 0;
          })
    in
    let pos_of_set = Array.make sets (-1) in
    Array.iteri (fun p e -> pos_of_set.(e.set) <- p) entries;
    {
      translate;
      line_shift = log2 line_size;
      set_mask = sets - 1;
      n_sets = sets;
      w = max_ways;
      rate;
      min_sets = min sets min_sets;
      budget;
      entries;
      pos_of_set;
      sel_len;
      threshold = rate;
      total_distinct = 0;
      offered = 0;
      evictions = 0;
    }

  let evict t =
    let p = t.sel_len - 1 in
    let e = t.entries.(p) in
    t.pos_of_set.(e.set) <- -1;
    t.sel_len <- p;
    t.total_distinct <- t.total_distinct - e.distinct;
    t.threshold <- e.hash;
    t.evictions <- t.evictions + 1

  let feed t ~write addr =
    t.offered <- t.offered + 1;
    let taddr = match t.translate with None -> addr | Some f -> f addr in
    let set = (taddr lsr t.line_shift) land t.set_mask in
    let p = Array.unsafe_get t.pos_of_set set in
    if p >= 0 then begin
      let e = Array.unsafe_get t.entries p in
      touch e.engine ~write ~counted:true taddr;
      let d = Line_set.length e.engine.seen in
      if d <> e.distinct then begin
        t.total_distinct <- t.total_distinct + (d - e.distinct);
        e.distinct <- d;
        match t.budget with
        | Some b ->
            (* never evict through the min_sets variance floor: once there,
               the budget is best-effort, like the sel_len = 1 endpoint *)
            while t.total_distinct > b && t.sel_len > t.min_sets do
              evict t
            done
        | None -> ()
      end
    end

  let access t ~kind addr = feed t ~write:(kind = Memtrace.Access.Write) addr

  let access_packed t p =
    let n = Memtrace.Packed.length p in
    let addrs = Memtrace.Packed.raw_addrs p in
    let kinds = kind_column p in
    for i = 0 to n - 1 do
      feed t
        ~write:(is_write kinds i)
        (Bigarray.Array1.unsafe_get addrs i)
    done

  (* Set-sharded parallel feeds, composing SHARDS sampling with the set
     shards above: selection is a per-set property (a set's hash does not
     depend on the traffic), so shard [s] of a sampled engine simply owns
     the selected sets with [set mod shards = s] and the merged per-entry
     counts are byte-identical to the serial sampled engine's. The
     fixed-budget variant is excluded: its largest-hash eviction is a
     global, order-dependent decision on [total_distinct], which sharding
     would reorder. *)

  let access_packed_sharded t ~shards ~shard p =
    if t.budget <> None then
      invalid_arg
        "Stack_dist.Sampled.access_packed_sharded: budget eviction is \
         order-dependent and cannot shard";
    check_shard ~shards ~shard ~sets:t.n_sets "Sampled.access_packed_sharded";
    let n = Memtrace.Packed.length p in
    let addrs = Memtrace.Packed.raw_addrs p in
    let kinds = kind_column p in
    for i = 0 to n - 1 do
      let addr = Bigarray.Array1.unsafe_get addrs i in
      let taddr = match t.translate with None -> addr | Some f -> f addr in
      let set = (taddr lsr t.line_shift) land t.set_mask in
      if set mod shards = shard then begin
        (* [offered] counts only this shard's sets, so the merged total is
           the serial engine's offered count, not [shards] times it. *)
        t.offered <- t.offered + 1;
        let p = Array.unsafe_get t.pos_of_set set in
        if p >= 0 then begin
          let e = Array.unsafe_get t.entries p in
          touch e.engine
            ~write:(is_write kinds i)
            ~counted:true taddr;
          let d = Line_set.length e.engine.seen in
          if d <> e.distinct then begin
            t.total_distinct <- t.total_distinct + (d - e.distinct);
            e.distinct <- d
          end
        end
      end
    done

  let merge_into dst src =
    if dst == src then
      invalid_arg
        "Stack_dist.Sampled.merge_into: cannot merge an engine into itself";
    if dst.budget <> None || src.budget <> None then
      invalid_arg "Stack_dist.Sampled.merge_into: budget engines cannot merge";
    if
      dst.line_shift <> src.line_shift
      || dst.n_sets <> src.n_sets
      || dst.w <> src.w
      || dst.sel_len <> src.sel_len
    then invalid_arg "Stack_dist.Sampled.merge_into: engine geometries differ";
    for p = 0 to dst.sel_len - 1 do
      if dst.entries.(p).set <> src.entries.(p).set then
        invalid_arg
          "Stack_dist.Sampled.merge_into: selections differ (seed or rate \
           mismatch)"
    done;
    for p = 0 to dst.sel_len - 1 do
      let de = dst.entries.(p) and se = src.entries.(p) in
      merge_exact de.engine se.engine;
      let d = Line_set.length de.engine.seen in
      dst.total_distinct <- dst.total_distinct + (d - de.distinct);
      de.distinct <- d
    done;
    dst.offered <- dst.offered + src.offered

  let feed_sharded_chunked t ~shards ~shard p =
    let n = Memtrace.Packed.length p in
    let pos = ref 0 in
    while !pos < n do
      let len = min shard_chunk (n - !pos) in
      access_packed_sharded t ~shards ~shard
        (Memtrace.Packed.sub p ~pos:!pos ~len);
      pos := !pos + len
    done

  let of_packed_parallel ?translate ?seed ?min_sets ~jobs ~rate ~line_size
      ~sets ~max_ways p =
    if jobs < 1 then
      invalid_arg
        (Printf.sprintf
           "Stack_dist.Sampled.of_packed_parallel: jobs must be a positive \
            domain count, got %d"
           jobs);
    if jobs > sets then
      invalid_arg
        (Printf.sprintf
           "Stack_dist.Sampled.of_packed_parallel: more shards (jobs=%d) \
            than sets (%d)"
           jobs sets);
    if jobs = 1 then begin
      let t =
        create ?translate ?seed ?min_sets ~rate ~line_size ~sets ~max_ways ()
      in
      access_packed t p;
      t
    end
    else begin
      ignore (kind_column p);
      let worker shard () =
        let t =
          create ?translate ?seed ?min_sets ~rate ~line_size ~sets ~max_ways
            ()
        in
        feed_sharded_chunked t ~shards:jobs ~shard p;
        t
      in
      let domains =
        Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
      in
      let t0 = worker 0 () in
      Array.iter (fun d -> merge_into t0 (Domain.join d)) domains;
      t0
    end

  let max_ways t = t.w
  let sets t = t.n_sets
  let selected_sets t = t.sel_len
  let set_evictions t = t.evictions
  let threshold t = t.threshold
  let effective_rate t = float_of_int t.sel_len /. float_of_int t.n_sets
  let scale t = float_of_int t.n_sets /. float_of_int t.sel_len
  let accesses t = t.offered
  let distinct_sampled_lines t = t.total_distinct

  let would_sample t addr =
    let taddr = match t.translate with None -> addr | Some f -> f addr in
    t.pos_of_set.((taddr lsr t.line_shift) land t.set_mask) >= 0

  let fold_selected t f init =
    let acc = ref init in
    for p = 0 to t.sel_len - 1 do
      acc := f !acc t.entries.(p).engine
    done;
    !acc

  let sampled_accesses t = fold_selected t (fun a e -> a + exact_accesses e) 0

  let raw_miss_curve t =
    let c = Array.make (t.w + 1) 0 in
    fold_selected t
      (fun () e ->
        let mc = miss_curve e in
        Array.iteri (fun i m -> c.(i) <- c.(i) + m) mc)
      ();
    c

  let miss_curve_est t =
    let s = scale t in
    Array.map (fun m -> float_of_int m *. s) (raw_miss_curve t)

  let mrc_est t =
    let c = miss_curve_est t in
    let denom = float_of_int (sampled_accesses t) *. scale t in
    if denom = 0. then Array.map (fun _ -> 0.) c
    else Array.map (fun m -> m /. denom) c

  let check_ways t a name =
    if a < 1 || a > t.w then
      invalid_arg
        (Printf.sprintf "Stack_dist.Sampled.%s: ways %d outside 1..%d" name a
           t.w)

  let est_of t name ~ways reading =
    check_ways t ways name;
    scale t *. float_of_int (fold_selected t (fun a e -> a + reading e ~ways) 0)

  let misses_est t ~ways = est_of t "misses_est" ~ways misses
  let evictions_est t ~ways = est_of t "evictions_est" ~ways evictions
  let writebacks_est t ~ways = est_of t "writebacks_est" ~ways writebacks
  let rate t = t.rate
end

(* {2 Incremental sliding-window MRCs}

   A rolling miss-ratio curve over the last [window] accesses, for
   controllers that must react to phase changes without re-sweeping the
   trace. Retiring individual accesses from a Mattson engine is not
   possible (a reference's depth contribution cannot be unwound), so the
   window is bucketed into [epochs] equal sub-histograms kept in a ring:
   the live engine accumulates the current epoch's counters; when the
   epoch fills, the counters are snapshotted into the ring slot holding
   the oldest epoch (retiring that whole epoch at once) and
   [reset_counts] zeroes the engine's counters while keeping its stacks
   and cold-line memory. Amortized cost per access is the ordinary touch
   plus O(max_ways / epoch_len) for the snapshot — O(1) for any real
   epoch length.

   The readings sum the live ring slots plus the partial current epoch,
   so they cover between [window] and [window + epoch_len - 1] recent
   accesses (whole-epoch granularity). Stack contents and the cold-line
   memory deliberately persist across retirement — depths are measured
   against true recency, only the counts age out — so a line first seen
   in a retired epoch re-counts as an overflow rather than a cold miss,
   the standard rolling approximation. While the total observed is at
   most [window], nothing has retired and every reading equals the
   one-shot engine's exactly, which the property suite pins. *)
module Windowed = struct
  type exact = t

  type t = {
    engine : exact;
    win : int;
    epoch_len : int;
    n_epochs : int;
    ring_hist : int array array; (* n_epochs rows of max_ways counters *)
    ring_cold : int array;
    ring_overflow : int array;
    ring_accesses : int array;
    mutable live : int; (* filled ring slots *)
    mutable head : int; (* next slot to write = oldest when full *)
    mutable cur : int; (* accesses in the unfinished epoch *)
    mutable retired : int; (* whole epochs aged out of the window *)
  }

  let create ?translate ~window ~epochs ~line_size ~sets ~max_ways () =
    if window < 1 then
      invalid_arg
        (Printf.sprintf
           "Stack_dist.Windowed.create: window must be a positive access \
            count, got %d"
           window);
    if epochs < 1 then
      invalid_arg
        (Printf.sprintf
           "Stack_dist.Windowed.create: epochs must be >= 1, got %d" epochs);
    if window mod epochs <> 0 then
      invalid_arg
        (Printf.sprintf
           "Stack_dist.Windowed.create: window %d is not a multiple of \
            epochs %d"
           window epochs);
    {
      engine = create ?translate ~line_size ~sets ~max_ways ();
      win = window;
      epoch_len = window / epochs;
      n_epochs = epochs;
      ring_hist = Array.init epochs (fun _ -> Array.make max_ways 0);
      ring_cold = Array.make epochs 0;
      ring_overflow = Array.make epochs 0;
      ring_accesses = Array.make epochs 0;
      live = 0;
      head = 0;
      cur = 0;
      retired = 0;
    }

  let window t = t.win
  let epochs t = t.n_epochs
  let epoch_length t = t.epoch_len
  let max_ways t = t.engine.w
  let sets t = t.engine.n_sets
  let retired_epochs t = t.retired

  (* Seal the full current epoch into the ring: overwrite the oldest slot
     (retiring its sub-histogram wholesale) and zero the live counters,
     keeping stacks and the cold-line memory. *)
  let seal t =
    let slot = t.head in
    if t.live = t.n_epochs then t.retired <- t.retired + 1
    else t.live <- t.live + 1;
    Array.blit t.engine.hist 0 t.ring_hist.(slot) 0 t.engine.w;
    t.ring_cold.(slot) <- t.engine.cold;
    t.ring_overflow.(slot) <- t.engine.overflow;
    t.ring_accesses.(slot) <- t.engine.n_accesses;
    reset_counts t.engine;
    t.head <- (slot + 1) mod t.n_epochs;
    t.cur <- 0

  let observe t ~kind addr =
    touch t.engine ~write:(kind = Memtrace.Access.Write) ~counted:true addr;
    t.cur <- t.cur + 1;
    if t.cur = t.epoch_len then seal t

  let observe_packed t p =
    let n = Memtrace.Packed.length p in
    let addrs = Memtrace.Packed.raw_addrs p in
    let kinds = kind_column p in
    for i = 0 to n - 1 do
      touch t.engine
        ~write:(is_write kinds i)
        ~counted:true
        (Bigarray.Array1.unsafe_get addrs i);
      t.cur <- t.cur + 1;
      if t.cur = t.epoch_len then seal t
    done

  (* Sum the live slots plus the partial epoch; slot order is irrelevant
     for integer sums, so the ring is walked densely. *)
  let fold_window t =
    let w = t.engine.w in
    let hist = Array.make w 0 in
    Array.blit t.engine.hist 0 hist 0 w;
    let cold = ref t.engine.cold in
    let overflow = ref t.engine.overflow in
    let acc = ref t.engine.n_accesses in
    for s = 0 to t.live - 1 do
      let row = t.ring_hist.(s) in
      for d = 0 to w - 1 do
        hist.(d) <- hist.(d) + row.(d)
      done;
      cold := !cold + t.ring_cold.(s);
      overflow := !overflow + t.ring_overflow.(s);
      acc := !acc + t.ring_accesses.(s)
    done;
    (hist, !cold, !overflow, !acc)

  let accesses_in_window t =
    let _, _, _, acc = fold_window t in
    acc

  let miss_curve_now t =
    let hist, cold, overflow, acc = fold_window t in
    let w = t.engine.w in
    let c = Array.make (w + 1) 0 in
    c.(w) <- cold + overflow;
    for a = w - 1 downto 1 do
      c.(a) <- c.(a + 1) + hist.(a)
    done;
    c.(0) <- acc;
    c

  let mrc_now t =
    let c = miss_curve_now t in
    if c.(0) = 0 then Array.map (fun _ -> 0.) c
    else
      let n = float_of_int c.(0) in
      Array.map (fun m -> float_of_int m /. n) c
end
