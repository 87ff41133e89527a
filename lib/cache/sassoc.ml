type config = {
  line_size : int;
  sets : int;
  ways : int;
  policy : Policy.kind;
  classify : bool;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate_config c =
  if not (is_power_of_two c.line_size) then
    invalid_arg "Sassoc: line_size must be a power of two";
  if not (is_power_of_two c.sets) then
    invalid_arg "Sassoc: sets must be a power of two";
  if c.ways < 1 || c.ways > Bitmask.max_columns then
    invalid_arg "Sassoc: ways out of range"

let config ?(line_size = 16) ?(policy = Policy.Lru) ?(classify = false)
    ~size_bytes ~ways () =
  if ways <= 0 then invalid_arg "Sassoc.config: ways must be positive";
  if size_bytes mod (line_size * ways) <> 0 then
    invalid_arg "Sassoc.config: size not divisible by line_size * ways";
  let sets = size_bytes / (line_size * ways) in
  let c = { line_size; sets; ways; policy; classify } in
  validate_config c;
  c

let config_size_bytes c = c.line_size * c.sets * c.ways
let column_size_bytes c = c.line_size * c.sets

type result =
  | Hit of { way : int }
  | Miss of { way : int; evicted_line : int option }

(* Empty slots hold this sentinel tag. Real tags are non-negative (addresses
   are), so a lookup never has to consult validity: scanning [tags] alone
   decides hit or miss, which is what keeps the replay loop to one array
   probe per way. The per-set [vmask] bits remain the authority on validity
   for the replacement unit and the inspection hooks. *)
let invalid_tag = min_int

type t = {
  cfg : config;
  line_shift : int;  (* log2 line_size: addr -> line without dividing *)
  set_mask : int;  (* sets - 1 *)
  tag_shift : int;  (* log2 sets: line -> tag without recomputing log2 *)
  full : Bitmask.t;  (* every way *)
  tags : int array;  (* sets * ways; [invalid_tag] when the slot is empty *)
  vmask : int array;  (* per-set bit mask of valid ways *)
  pred : int array;
      (* per-set way prediction: the way that hit or filled last. Purely a
         lookup shortcut — a tag matches at most one way, so probing the
         predicted way before scanning changes no observable behavior; with
         line-level locality it turns most scans into one probe. *)
  dirty : Bytes.t;
  policy : Policy.t;
  stats : Stats.t;
  seen_lines : (int, unit) Hashtbl.t;  (* for cold-miss detection *)
  shadow : Lru_set.t option;  (* fully-associative same-capacity LRU *)
  mutable evicted_line : int;
      (* line displaced by the most recent install; -1 when it filled an
         empty way *)
  mutable writeback_line : int;
      (* line written back by the most recent install; -1 when the
         displaced line was clean or there was none *)
}

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let create cfg =
  validate_config cfg;
  let n = cfg.sets * cfg.ways in
  let full = Bitmask.full ~n:cfg.ways in
  {
    cfg;
    line_shift = log2 cfg.line_size;
    set_mask = cfg.sets - 1;
    tag_shift = log2 cfg.sets;
    full;
    tags = Array.make n invalid_tag;
    vmask = Array.make cfg.sets 0;
    pred = Array.make cfg.sets 0;
    dirty = Bytes.make n '\000';
    policy = Policy.create cfg.policy ~sets:cfg.sets ~ways:cfg.ways;
    stats = Stats.create ~ways:cfg.ways;
    seen_lines = (if cfg.classify then Hashtbl.create 4096 else Hashtbl.create 1);
    shadow = (if cfg.classify then Some (Lru_set.create ~capacity:n) else None);
    evicted_line = -1;
    writeback_line = -1;
  }

let geometry t = t.cfg
let stats t = t.stats
let slot t ~set ~way = (set * t.cfg.ways) + way
let valid_way t ~set ~way = t.vmask.(set) land (1 lsl way) <> 0
let line_of_addr t addr = addr lsr t.line_shift
let set_of_line t line = line land t.set_mask
let tag_of_line t line = line lsr t.tag_shift

let line_of_slot t ~set ~way =
  let tag = t.tags.(slot t ~set ~way) in
  (tag lsl t.tag_shift) lor set

(* The way in [base, base + ways) holding [tag], scanning from [w]; -1 when
   none does. A top-level function with int-annotated arguments: a local
   closure here would be allocated on every scan, and an unannotated [=]
   would compile to the polymorphic [caml_equal]. *)
let rec scan_ways (tags : int array) ~base ~ways (tag : int) w =
  if w >= ways then -1
  else if Array.unsafe_get tags (base + w) = tag then w
  else scan_ways tags ~base ~ways tag (w + 1)

(* -1 when the line is absent; allocation-free (no option). The predicted
   way is probed before the scan (see [pred]). *)
let find_way_idx t ~set ~tag =
  let ways = t.cfg.ways in
  let base = set * ways in
  let p = Array.unsafe_get t.pred set in
  if Array.unsafe_get t.tags (base + p) = tag then p
  else scan_ways t.tags ~base ~ways tag 0

let find_way t ~set ~tag =
  match find_way_idx t ~set ~tag with -1 -> None | w -> Some w

let classify_miss t line =
  (* Must be called before updating seen/shadow. *)
  match t.shadow with
  | None -> ()
  | Some shadow ->
      let cold = not (Hashtbl.mem t.seen_lines line) in
      if cold then begin
        Hashtbl.add t.seen_lines line ();
        t.stats.cold_misses <- t.stats.cold_misses + 1
      end;
      let shadow_hit = Lru_set.mem shadow line in
      if not cold then
        if shadow_hit then
          t.stats.conflict_misses <- t.stats.conflict_misses + 1
        else t.stats.capacity_misses <- t.stats.capacity_misses + 1

let update_shadow t line =
  match t.shadow with
  | None -> ()
  | Some shadow -> ignore (Lru_set.touch shadow line)

(* The single choke point for mask validation: the replacement hardware must
   always receive at least one permissible column, so a mask that selects
   no way of this cache is a programming error, not a no-op. The mask is
   passed on as given: [Policy.victim] intersects it with the cache's ways
   itself. *)
let check_mask t ~who mask =
  if (mask : Bitmask.t :> int) land (t.full :> int) = 0 then
    invalid_arg (Printf.sprintf "Sassoc.%s: empty column mask" who)

let effective_mask t ~who = function
  | None -> t.full
  | Some mask ->
      check_mask t ~who mask;
      mask

(* Evict-and-fill of [tag] into [set], for a demand miss or a prefetch:
   choose the victim among [mask]'s ways, count its eviction and writeback,
   record the displaced and written-back lines, and install the tag (dirty
   when [dirty]). Returns the way. *)
let install t ~mask ~set ~tag ~dirty =
  let vm = Array.unsafe_get t.vmask set in
  let way = Policy.victim t.policy ~set ~allowed:mask ~valid:(Bitmask.of_bits vm) in
  let s = (set * t.cfg.ways) + way in
  if vm land (1 lsl way) <> 0 then begin
    let line = (Array.unsafe_get t.tags s lsl t.tag_shift) lor set in
    t.stats.evictions <- t.stats.evictions + 1;
    t.evicted_line <- line;
    if Bytes.unsafe_get t.dirty s = '\001' then begin
      t.stats.writebacks <- t.stats.writebacks + 1;
      t.writeback_line <- line
    end
    else t.writeback_line <- -1
  end
  else begin
    t.evicted_line <- -1;
    t.writeback_line <- -1
  end;
  Array.unsafe_set t.tags s tag;
  Array.unsafe_set t.vmask set (vm lor (1 lsl way));
  Array.unsafe_set t.pred set way;
  Bytes.unsafe_set t.dirty s (if dirty then '\001' else '\000');
  Policy.on_fill t.policy ~set ~way;
  t.stats.fills_per_way.(way) <- t.stats.fills_per_way.(way) + 1;
  way

(* One demand reference under a validated mask: the way that hit, or
   [-1 - way] for the way a miss filled. *)
let reference t ~mask ~kind addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let tag = line lsr t.tag_shift in
  t.stats.accesses <- t.stats.accesses + 1;
  let way = find_way_idx t ~set ~tag in
  if way >= 0 then begin
    t.stats.hits <- t.stats.hits + 1;
    Array.unsafe_set t.pred set way;
    Policy.on_hit t.policy ~set ~way;
    (match kind with
    | Memtrace.Access.Write ->
        Bytes.unsafe_set t.dirty ((set * t.cfg.ways) + way) '\001'
    | Memtrace.Access.Read | Memtrace.Access.Ifetch -> ());
    update_shadow t line;
    way
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    classify_miss t line;
    update_shadow t line;
    let dirty =
      match kind with
      | Memtrace.Access.Write -> true
      | Memtrace.Access.Read | Memtrace.Access.Ifetch -> false
    in
    -1 - install t ~mask ~set ~tag ~dirty
  end

let access t ?mask ~kind addr =
  let mask = effective_mask t ~who:"access" mask in
  match reference t ~mask ~kind addr with
  | way when way >= 0 -> Hit { way }
  | code ->
      let evicted_line =
        if t.evicted_line >= 0 then Some t.evicted_line else None
      in
      Miss { way = -1 - code; evicted_line }

let access_record t ?mask (a : Memtrace.Access.t) =
  access t ?mask ~kind:a.kind a.addr

(* [access] without the [result] block: the outcome is returned as two bits
   (bit 0: miss, bit 1: a dirty victim was written back), so per-access
   callers that only need hit/miss/writeback — the machine's batched replay
   loop — allocate nothing. State and statistics updates are identical to
   [access], a property the machine-level differential soak checks. *)
let coded t ~who ~mask ~kind addr =
  check_mask t ~who mask;
  if reference t ~mask ~kind addr >= 0 then 0
  else if t.writeback_line >= 0 then 3
  else 1

let access_masked t ~mask ~kind addr = coded t ~who:"access_masked" ~mask ~kind addr

let access_coded t ?mask ~kind addr =
  match mask with
  | None -> coded t ~who:"access_coded" ~mask:t.full ~kind addr
  | Some mask -> coded t ~who:"access_coded" ~mask ~kind addr

let writeback_line t = t.writeback_line

(* The batched hot path: replays a whole trace under one mask without
   constructing per-access [result] values (or any other heap block on the
   non-classifying path). Observable state afterwards — statistics, contents,
   replacement state — is identical to folding [access_record] over the
   trace, a property the differential soak checks continuously.

   The non-classifying loops are specialized: the trace's backing array is
   walked directly and every index is provably in range ([set] is masked,
   [way] scans below [ways]), so unchecked accesses are safe. LRU — the
   dominant configuration — gets its own loop that writes the policy's stamp
   array directly instead of calling through [Policy.on_hit]/[on_fill]: the
   stamp discipline (increment the clock, stamp the touched slot) is exactly
   theirs, and [Policy.victim] for LRU reads only the stamps, so keeping the
   clock in a local until the loop ends is invisible to victim choice. *)
let trace_loop_lru t ~mask ~(arr : Memtrace.Access.t array) ~stamps =
  let stats = t.stats in
  let tags = t.tags and vmask = t.vmask and dirty = t.dirty and pred = t.pred in
  let policy = t.policy in
  let ways = t.cfg.ways in
  let line_shift = t.line_shift
  and set_mask = t.set_mask
  and tag_shift = t.tag_shift in
  let clock = ref (Policy.clock policy) in
  (* Hit/access counters are batched: every access is a hit or a miss, so
     counting misses in a local and adding [length] accesses at the end
     leaves the statistics exactly as the per-access path would — and the
     whole replay is one call, so no observer can see the intermediate
     counts. *)
  let miss_count = ref 0 in
  for i = 0 to Array.length arr - 1 do
    let a = Array.unsafe_get arr i in
    let line = a.Memtrace.Access.addr lsr line_shift in
    let set = line land set_mask in
    let tag = line lsr tag_shift in
    let base = set * ways in
    let pw = Array.unsafe_get pred set in
    let way =
      if Array.unsafe_get tags (base + pw) = tag then pw
      else scan_ways tags ~base ~ways tag 0
    in
    if way >= 0 then begin
      if way <> pw then Array.unsafe_set pred set way;
      incr clock;
      Array.unsafe_set stamps (base + way) !clock;
      match a.Memtrace.Access.kind with
      | Memtrace.Access.Write -> Bytes.unsafe_set dirty (base + way) '\001'
      | Memtrace.Access.Read | Memtrace.Access.Ifetch -> ()
    end
    else begin
      incr miss_count;
      let vm = Array.unsafe_get vmask set in
      let way =
        Policy.victim policy ~set ~allowed:mask ~valid:(Bitmask.of_bits vm)
      in
      let s = base + way in
      if vm land (1 lsl way) <> 0 then begin
        stats.evictions <- stats.evictions + 1;
        if Bytes.unsafe_get dirty s = '\001' then
          stats.writebacks <- stats.writebacks + 1
      end;
      Array.unsafe_set tags s tag;
      Array.unsafe_set vmask set (vm lor (1 lsl way));
      Bytes.unsafe_set dirty s
        (match a.Memtrace.Access.kind with
        | Memtrace.Access.Write -> '\001'
        | Memtrace.Access.Read | Memtrace.Access.Ifetch -> '\000');
      Array.unsafe_set pred set way;
      incr clock;
      Array.unsafe_set stamps s !clock;
      stats.fills_per_way.(way) <- stats.fills_per_way.(way) + 1
    end
  done;
  stats.accesses <- stats.accesses + Array.length arr;
  stats.misses <- stats.misses + !miss_count;
  stats.hits <- stats.hits + (Array.length arr - !miss_count);
  Policy.set_clock policy !clock

let trace_loop_generic t ~mask ~(arr : Memtrace.Access.t array) =
  let stats = t.stats in
  let tags = t.tags and vmask = t.vmask and dirty = t.dirty and pred = t.pred in
  let policy = t.policy in
  let ways = t.cfg.ways in
  let line_shift = t.line_shift
  and set_mask = t.set_mask
  and tag_shift = t.tag_shift in
  for i = 0 to Array.length arr - 1 do
    let a = Array.unsafe_get arr i in
    let line = a.Memtrace.Access.addr lsr line_shift in
    let set = line land set_mask in
    let tag = line lsr tag_shift in
    let base = set * ways in
    stats.accesses <- stats.accesses + 1;
    let pw = Array.unsafe_get pred set in
    let way =
      if Array.unsafe_get tags (base + pw) = tag then pw
      else scan_ways tags ~base ~ways tag 0
    in
    if way >= 0 then begin
      if way <> pw then Array.unsafe_set pred set way;
      stats.hits <- stats.hits + 1;
      Policy.on_hit policy ~set ~way;
      match a.Memtrace.Access.kind with
      | Memtrace.Access.Write -> Bytes.unsafe_set dirty (base + way) '\001'
      | Memtrace.Access.Read | Memtrace.Access.Ifetch -> ()
    end
    else begin
      stats.misses <- stats.misses + 1;
      let vm = Array.unsafe_get vmask set in
      let way =
        Policy.victim policy ~set ~allowed:mask ~valid:(Bitmask.of_bits vm)
      in
      let s = base + way in
      if vm land (1 lsl way) <> 0 then begin
        stats.evictions <- stats.evictions + 1;
        if Bytes.unsafe_get dirty s = '\001' then
          stats.writebacks <- stats.writebacks + 1
      end;
      Array.unsafe_set tags s tag;
      Array.unsafe_set vmask set (vm lor (1 lsl way));
      Bytes.unsafe_set dirty s
        (match a.Memtrace.Access.kind with
        | Memtrace.Access.Write -> '\001'
        | Memtrace.Access.Read | Memtrace.Access.Ifetch -> '\000');
      Array.unsafe_set pred set way;
      Policy.on_fill policy ~set ~way;
      stats.fills_per_way.(way) <- stats.fills_per_way.(way) + 1
    end
  done

let access_trace t ?mask trace =
  let mask = effective_mask t ~who:"access_trace" mask in
  match t.shadow with
  | None -> (
      let arr = Memtrace.Trace.raw trace in
      match Policy.lru_stamps t.policy with
      | Some stamps -> trace_loop_lru t ~mask ~arr ~stamps
      | None -> trace_loop_generic t ~mask ~arr)
  | Some _ ->
      Memtrace.Trace.iter
        (fun a -> ignore (access t ~mask ~kind:a.Memtrace.Access.kind a.addr))
        trace

let fill t ~mask addr =
  check_mask t ~who:"fill" mask;
  let line = line_of_addr t addr in
  let set = set_of_line t line in
  let tag = tag_of_line t line in
  find_way_idx t ~set ~tag < 0
  && begin
       ignore (install t ~mask ~set ~tag ~dirty:false);
       update_shadow t line;
       true
     end

let probe t addr =
  let line = line_of_addr t addr in
  let set = set_of_line t line in
  find_way t ~set ~tag:(tag_of_line t line)

let way_of_line t line =
  let set = set_of_line t line in
  find_way t ~set ~tag:(tag_of_line t line)

let set_of_addr t addr = set_of_line t (line_of_addr t addr)

let set_occupancy t set =
  if set < 0 || set >= t.cfg.sets then invalid_arg "Sassoc.set_occupancy";
  Bitmask.count (Bitmask.of_bits t.vmask.(set))

let lines_in_set t set =
  if set < 0 || set >= t.cfg.sets then invalid_arg "Sassoc.lines_in_set";
  let out = ref [] in
  for way = t.cfg.ways - 1 downto 0 do
    if valid_way t ~set ~way then out := (way, line_of_slot t ~set ~way) :: !out
  done;
  !out

let occupied_ways t set =
  if set < 0 || set >= t.cfg.sets then invalid_arg "Sassoc.occupied_ways";
  Bitmask.of_bits t.vmask.(set)

let lines_in_column t way =
  if way < 0 || way >= t.cfg.ways then invalid_arg "Sassoc.lines_in_column";
  let out = ref [] in
  for set = t.cfg.sets - 1 downto 0 do
    if valid_way t ~set ~way then out := line_of_slot t ~set ~way :: !out
  done;
  !out

let valid_lines t =
  Array.fold_left
    (fun acc vm -> acc + Bitmask.count (Bitmask.of_bits vm))
    0 t.vmask

let invalidate_line t line =
  let set = set_of_line t line in
  match find_way_idx t ~set ~tag:(tag_of_line t line) with
  | -1 -> ()
  | way ->
      let s = slot t ~set ~way in
      t.tags.(s) <- invalid_tag;
      t.vmask.(set) <- t.vmask.(set) land lnot (1 lsl way);
      Bytes.set t.dirty s '\000'

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) invalid_tag;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Array.fill t.vmask 0 (Array.length t.vmask) 0

let reset_stats t = Stats.reset t.stats
