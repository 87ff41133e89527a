(* Tests for the cache library: bitmasks, the LRU set, replacement policies,
   the column-restricted set-associative cache and its statistics. *)

module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Bitmask = Cache.Bitmask
module Policy = Cache.Policy
module Lru_set = Cache.Lru_set
module Sassoc = Cache.Sassoc
module Stats = Cache.Stats
module Column_cache = Cache.Column_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Bitmask --- *)

let test_bitmask_basic () =
  let m = Bitmask.of_list [ 0; 2; 3 ] in
  check_bool "mem 2" true (Bitmask.mem m 2);
  check_bool "mem 1" false (Bitmask.mem m 1);
  check_int "count" 3 (Bitmask.count m);
  Alcotest.(check (list int)) "to_list" [ 0; 2; 3 ] (Bitmask.to_list m)

let test_bitmask_ops () =
  let a = Bitmask.of_list [ 0; 1 ] and b = Bitmask.of_list [ 1; 2 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2 ] Bitmask.(to_list (union a b));
  Alcotest.(check (list int)) "inter" [ 1 ] Bitmask.(to_list (inter a b));
  Alcotest.(check (list int)) "diff" [ 0 ] Bitmask.(to_list (diff a b));
  check_bool "subset" true (Bitmask.subset (Bitmask.singleton 1) a);
  check_bool "not subset" false (Bitmask.subset b a)

let test_bitmask_full_complement () =
  let f = Bitmask.full ~n:4 in
  check_int "full count" 4 (Bitmask.count f);
  let c = Bitmask.complement ~n:4 (Bitmask.of_list [ 1; 3 ]) in
  Alcotest.(check (list int)) "complement" [ 0; 2 ] (Bitmask.to_list c)

let test_bitmask_range () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] Bitmask.(to_list (range ~lo:2 ~hi:4));
  check_bool "empty range" true (Bitmask.is_empty (Bitmask.range ~lo:3 ~hi:2))

let test_bitmask_string () =
  let m = Bitmask.of_list [ 0; 3 ] in
  Alcotest.(check string) "render" "1001" (Bitmask.to_string ~n:4 m);
  check_bool "parse" true (Bitmask.equal m (Bitmask.of_string "1001"))

let test_bitmask_bounds () =
  check_bool "negative col raises" true
    (try ignore (Bitmask.singleton (-1)); false with Invalid_argument _ -> true);
  check_bool "min_elt raises" true
    (try ignore (Bitmask.min_elt Bitmask.empty); false with Not_found -> true);
  check_int "min_elt" 2 (Bitmask.min_elt (Bitmask.of_list [ 5; 2 ]))

let arb_mask =
  QCheck.make
    ~print:(fun m -> Bitmask.to_string ~n:16 m)
    QCheck.Gen.(map (fun l -> Bitmask.of_list l) (list_size (int_bound 8) (int_bound 15)))

let prop_mask_roundtrip =
  QCheck.Test.make ~name:"bitmask of_list/to_list roundtrip" ~count:300 arb_mask
    (fun m -> Bitmask.equal m (Bitmask.of_list (Bitmask.to_list m)))

let prop_mask_demorgan =
  QCheck.Test.make ~name:"bitmask De Morgan" ~count:300 (QCheck.pair arb_mask arb_mask)
    (fun (a, b) ->
      Bitmask.equal
        (Bitmask.complement ~n:16 (Bitmask.union a b))
        (Bitmask.inter (Bitmask.complement ~n:16 a) (Bitmask.complement ~n:16 b)))

let prop_mask_union_count =
  QCheck.Test.make ~name:"count(union) = count a + count b - count(inter)" ~count:300
    (QCheck.pair arb_mask arb_mask) (fun (a, b) ->
      Bitmask.(count (union a b) = count a + count b - count (inter a b)))

(* --- Lru_set --- *)

let test_lru_set_basic () =
  let s = Lru_set.create ~capacity:3 in
  check_int "miss 1" Lru_set.inserted (Lru_set.touch s 1);
  check_int "miss 2" Lru_set.inserted (Lru_set.touch s 2);
  check_int "hit 1" Lru_set.hit (Lru_set.touch s 1);
  check_int "miss 3" Lru_set.inserted (Lru_set.touch s 3);
  (* order now: 3, 1, 2 -> inserting 4 evicts 2 *)
  check_int "evicts lru" 2 (Lru_set.touch s 4);
  Alcotest.(check (list int)) "mru order" [ 4; 3; 1 ] (Lru_set.to_list s);
  check_bool "negative key rejected" true
    (try ignore (Lru_set.touch s (-1)); false with Invalid_argument _ -> true)

let test_lru_set_remove_clear () =
  let s = Lru_set.create ~capacity:2 in
  ignore (Lru_set.touch s 10);
  ignore (Lru_set.touch s 20);
  check_bool "remove present" true (Lru_set.remove s 10);
  check_bool "remove absent" false (Lru_set.remove s 10);
  check_int "length" 1 (Lru_set.length s);
  (* freed slot is reusable *)
  check_int "reinsert" Lru_set.inserted (Lru_set.touch s 30);
  Lru_set.clear s;
  check_int "cleared" 0 (Lru_set.length s);
  check_bool "empty after clear" true (Lru_set.to_list s = [])

let prop_lru_set_capacity =
  QCheck.Test.make ~name:"lru_set never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.int_bound 80) (int_bound 20)))
    (fun (cap, keys) ->
      let s = Lru_set.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Lru_set.touch s k);
          Lru_set.length s <= cap)
        keys)

let prop_lru_set_model =
  (* Compare against a naive list-based LRU model. *)
  QCheck.Test.make ~name:"lru_set matches reference model" ~count:200
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.int_bound 60) (int_bound 12)))
    (fun (cap, keys) ->
      let s = Lru_set.create ~capacity:cap in
      let model = ref [] in
      List.for_all
        (fun k ->
          let got = Lru_set.touch s k in
          let expected =
            if List.mem k !model then Lru_set.hit
            else if List.length !model < cap then Lru_set.inserted
            else List.nth !model (cap - 1)
          in
          model := k :: List.filter (fun x -> x <> k) !model;
          if List.length !model > cap then
            model := List.filteri (fun i _ -> i < cap) !model;
          got = expected
          && Lru_set.to_list s = !model
          && List.for_all (Lru_set.mem s) !model)
        keys)

let prop_lru_set_model_removes =
  (* Touches and removes over a wide key range, so the flat index sees
     collisions, wrapped probe runs and deletions in the middle of runs. *)
  QCheck.Test.make ~name:"lru_set matches reference model under removes"
    ~count:300
    QCheck.(
      pair (int_range 1 40)
        (list_of_size (QCheck.Gen.int_bound 400)
           (pair bool (oneof [ int_bound 60; int_bound 1_000_000 ]))))
    (fun (cap, ops) ->
      let s = Lru_set.create ~capacity:cap in
      let model = ref [] in
      List.for_all
        (fun (is_remove, k) ->
          if is_remove then begin
            let present = List.mem k !model in
            model := List.filter (fun x -> x <> k) !model;
            Lru_set.remove s k = present
          end
          else begin
            ignore (Lru_set.touch s k);
            model := k :: List.filter (fun x -> x <> k) !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model;
            true
          end
          && Lru_set.to_list s = !model
          && Lru_set.length s = List.length !model
          && List.for_all (Lru_set.mem s) !model)
        ops)

(* --- geometry helpers --- *)

(* 4 columns x 4 sets x 16B lines = 256B cache; column = 64B. *)
let tiny_config ?(policy = Policy.Lru) ?(classify = false) () =
  Sassoc.config ~line_size:16 ~policy ~classify ~size_bytes:256 ~ways:4 ()

let read_addr c ?mask addr = Sassoc.access c ?mask ~kind:Access.Read addr

(* --- Sassoc basics --- *)

let test_sassoc_config () =
  let cfg = tiny_config () in
  check_int "sets" 4 cfg.Sassoc.sets;
  check_int "size" 256 (Sassoc.config_size_bytes cfg);
  check_int "column size" 64 (Sassoc.column_size_bytes cfg)

let test_sassoc_config_invalid () =
  check_bool "bad divide" true
    (try ignore (Sassoc.config ~size_bytes:100 ~ways:3 ()); false
     with Invalid_argument _ -> true);
  check_bool "non-pow2 line" true
    (try ignore (Sassoc.config ~line_size:24 ~size_bytes:768 ~ways:2 ()); false
     with Invalid_argument _ -> true)

let test_sassoc_hit_after_miss () =
  let c = Sassoc.create (tiny_config ()) in
  (match read_addr c 0x40 with
  | Sassoc.Miss _ -> ()
  | Sassoc.Hit _ -> Alcotest.fail "first access must miss");
  (match read_addr c 0x40 with
  | Sassoc.Hit _ -> ()
  | Sassoc.Miss _ -> Alcotest.fail "second access must hit");
  (* same line, different byte *)
  match read_addr c 0x4F with
  | Sassoc.Hit _ -> ()
  | Sassoc.Miss _ -> Alcotest.fail "same-line access must hit"

let test_sassoc_lru_eviction_order () =
  let c = Sassoc.create (tiny_config ()) in
  (* Five distinct lines mapping to set 0 (stride = sets*line = 64). *)
  let line i = i * 64 in
  for i = 0 to 3 do
    ignore (read_addr c (line i))
  done;
  ignore (read_addr c (line 0));
  (* set order now 0 MRU ... 1 LRU; filling line 4 must evict line 1, whose
     line address is 64/16 = 4 *)
  (match read_addr c (line 4) with
  | Sassoc.Miss { evicted_line; _ } ->
      check_bool "evicts LRU line" true (evicted_line = Some (line 1 / 16))
  | Sassoc.Hit _ -> Alcotest.fail "must miss");
  (match read_addr c (line 0) with
  | Sassoc.Hit _ -> ()
  | Sassoc.Miss _ -> Alcotest.fail "line 0 must survive")

let test_sassoc_mask_confines_fills () =
  let c = Sassoc.create (tiny_config ()) in
  let mask = Bitmask.of_list [ 1 ] in
  for i = 0 to 9 do
    match read_addr c ~mask (i * 64) with
    | Sassoc.Miss { way; _ } -> check_int "fills way 1" 1 way
    | Sassoc.Hit _ -> Alcotest.fail "distinct lines must miss"
  done;
  check_int "only one line kept in the column" 1
    (List.length (Sassoc.lines_in_column c 1));
  check_int "other columns untouched" 0 (List.length (Sassoc.lines_in_column c 0))

let test_sassoc_empty_mask_rejected () =
  let c = Sassoc.create (tiny_config ()) in
  check_bool "raises" true
    (try ignore (read_addr c ~mask:Bitmask.empty 0); false
     with Invalid_argument _ -> true)

(* Regression for the mask=0 path: the documented contract is that an empty
   EFFECTIVE mask raises — including a non-empty mask whose columns all lie
   beyond the cache's ways — on both access and fill, without perturbing
   statistics or contents. *)
let test_sassoc_effective_mask_zero () =
  let c = Sassoc.create (tiny_config ()) in
  (* tiny_config has 4 ways; column 5 exists in the mask type but not in
     this cache, so the effective mask is empty *)
  let beyond = Bitmask.singleton 5 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "access: out-of-range-only mask" true
    (raises (fun () -> ignore (read_addr c ~mask:beyond 0)));
  check_bool "fill: empty mask" true
    (raises (fun () -> ignore (Sassoc.fill c ~mask:Bitmask.empty 0)));
  check_bool "fill: out-of-range-only mask" true
    (raises (fun () -> ignore (Sassoc.fill c ~mask:beyond 0)));
  let s = Sassoc.stats c in
  check_int "no access counted" 0 s.Stats.accesses;
  check_int "no miss counted" 0 s.Stats.misses;
  check_int "nothing installed" 0 (Sassoc.valid_lines c);
  (* a partially out-of-range mask keeps its in-range columns *)
  match read_addr c ~mask:(Bitmask.of_list [ 2; 5 ]) 0 with
  | Sassoc.Miss { way = 2; _ } -> ()
  | _ -> Alcotest.fail "in-range column of a partial mask must be used"

let test_sassoc_set_inspection () =
  (* The hooks the differential oracle compares against. *)
  let c = Sassoc.create (tiny_config ()) in
  (* lines 0 and 4 both index set 0 (4 sets); line 1 indexes set 1 *)
  ignore (read_addr c ~mask:(Bitmask.singleton 1) 0x0);
  ignore (read_addr c ~mask:(Bitmask.singleton 3) 0x40);
  ignore (read_addr c 0x10);
  check_int "set of 0x0" 0 (Sassoc.set_of_addr c 0x0);
  check_int "set of 0x10" 1 (Sassoc.set_of_addr c 0x10);
  check_int "occupancy set 0" 2 (Sassoc.set_occupancy c 0);
  check_int "occupancy set 1" 1 (Sassoc.set_occupancy c 1);
  Alcotest.(check (list (pair int int)))
    "lines in set 0" [ (1, 0); (3, 4) ] (Sassoc.lines_in_set c 0);
  check_bool "occupied ways" true
    (Bitmask.equal (Bitmask.of_list [ 1; 3 ]) (Sassoc.occupied_ways c 0));
  check_bool "bad set rejected" true
    (try ignore (Sassoc.set_occupancy c 4); false
     with Invalid_argument _ -> true)

let test_sassoc_lookup_ignores_mask () =
  (* Graceful repartitioning: data cached under one mapping is still found
     when accessed under a disjoint mapping (Section 2.1). *)
  let c = Sassoc.create (tiny_config ()) in
  ignore (read_addr c ~mask:(Bitmask.singleton 0) 0x80);
  match read_addr c ~mask:(Bitmask.singleton 3) 0x80 with
  | Sassoc.Hit { way } -> check_int "found in old column" 0 way
  | Sassoc.Miss _ -> Alcotest.fail "remapped data must still hit"

let test_sassoc_scratchpad_exclusivity () =
  (* A region the size of one column, mapped exclusively to that column and
     preloaded, never misses again even under heavy interference confined to
     the other columns. *)
  let cfg = tiny_config () in
  let c = Sassoc.create cfg in
  let colsize = Sassoc.column_size_bytes cfg in
  let pad_mask = Bitmask.singleton 2 in
  let other_mask = Bitmask.complement ~n:4 pad_mask in
  (* preload the scratchpad region *)
  let lines = colsize / cfg.Sassoc.line_size in
  for i = 0 to lines - 1 do
    ignore (read_addr c ~mask:pad_mask (i * cfg.Sassoc.line_size))
  done;
  (* interference traffic elsewhere *)
  for i = 0 to 499 do
    ignore (read_addr c ~mask:other_mask (0x10000 + (i * 16)))
  done;
  for i = 0 to lines - 1 do
    match read_addr c ~mask:pad_mask (i * cfg.Sassoc.line_size) with
    | Sassoc.Hit _ -> ()
    | Sassoc.Miss _ -> Alcotest.fail "scratchpad line was evicted"
  done

let test_sassoc_full_mask_is_standard () =
  (* With the full mask the column cache behaves exactly like a standard
     set-associative cache: same hit/miss sequence. *)
  let cfg = tiny_config () in
  let a = Sassoc.create cfg and b = Sassoc.create cfg in
  let full = Bitmask.full ~n:4 in
  let trace =
    Memtrace.Synthetic.uniform_random ~seed:11 ~base:0 ~span:2048 ~count:800 ()
  in
  Trace.iter
    (fun acc ->
      let ra = Sassoc.access a ~kind:acc.Access.kind acc.Access.addr in
      let rb = Sassoc.access b ~mask:full ~kind:acc.Access.kind acc.Access.addr in
      let is_hit = function Sassoc.Hit _ -> true | Sassoc.Miss _ -> false in
      check_bool "same outcome" (is_hit ra) (is_hit rb))
    trace

let test_sassoc_stats_accounting () =
  let c = Sassoc.create (tiny_config ()) in
  ignore (read_addr c 0);
  ignore (read_addr c 0);
  ignore (read_addr c 64);
  let s = Sassoc.stats c in
  check_int "accesses" 3 s.Stats.accesses;
  check_int "hits" 1 s.Stats.hits;
  check_int "misses" 2 s.Stats.misses;
  check_bool "rates" true
    (abs_float (Stats.miss_rate s -. (2. /. 3.)) < 1e-9)

let test_sassoc_writeback () =
  let c = Sassoc.create (tiny_config ()) in
  ignore (Sassoc.access c ~kind:Access.Write 0);
  (* evict line 0 from set 0 by filling the set with reads *)
  for i = 1 to 4 do
    ignore (read_addr c (i * 64))
  done;
  let s = Sassoc.stats c in
  check_int "one writeback" 1 s.Stats.writebacks

let test_sassoc_classification () =
  let cfg = tiny_config ~classify:true () in
  let c = Sassoc.create cfg in
  (* 16 lines = capacity; walk 17 distinct lines twice. First pass: all cold.
     Second pass: the 17-line working set exceeds capacity 16 -> capacity
     misses under LRU (cyclic walk evicts just-needed lines). *)
  for _ = 1 to 2 do
    for i = 0 to 16 do
      ignore (read_addr c (i * 64))
    done
  done;
  let s = Sassoc.stats c in
  check_int "cold = distinct lines" 17 s.Stats.cold_misses;
  check_bool "classified misses sum" true
    (s.Stats.cold_misses + s.Stats.capacity_misses + s.Stats.conflict_misses
     = s.Stats.misses)

let test_sassoc_conflict_classification () =
  (* Two lines in the same set of a direct-mapped-ish restriction produce
     conflict misses: working set (2 lines) fits total capacity easily. *)
  let cfg =
    Sassoc.config ~line_size:16 ~classify:true ~size_bytes:256 ~ways:1 ()
  in
  let c = Sassoc.create cfg in
  (* 16 sets; addresses 0 and 256 share set 0 under ways=1, sets=16 *)
  for _ = 1 to 10 do
    ignore (read_addr c 0);
    ignore (read_addr c 256)
  done;
  let s = Sassoc.stats c in
  check_int "cold" 2 s.Stats.cold_misses;
  check_bool "mostly conflict" true (s.Stats.conflict_misses >= 16);
  check_int "no capacity misses" 0 s.Stats.capacity_misses

let test_sassoc_flush_preserves_stats () =
  let c = Sassoc.create (tiny_config ()) in
  ignore (read_addr c 0);
  Sassoc.flush c;
  check_int "no valid lines" 0 (Sassoc.valid_lines c);
  check_int "stats kept" 1 (Sassoc.stats c).Stats.accesses;
  match read_addr c 0 with
  | Sassoc.Miss _ -> ()
  | Sassoc.Hit _ -> Alcotest.fail "flushed line must miss"

let test_sassoc_invalidate_line () =
  let c = Sassoc.create (tiny_config ()) in
  ignore (read_addr c 0x40);
  Sassoc.invalidate_line c (0x40 / 16);
  check_bool "probe misses" true (Sassoc.probe c 0x40 = None)

let test_sassoc_probe_no_side_effect () =
  let c = Sassoc.create (tiny_config ()) in
  ignore (read_addr c 0);
  let before = (Sassoc.stats c).Stats.accesses in
  ignore (Sassoc.probe c 0);
  ignore (Sassoc.probe c 999);
  check_int "probe does not count" before (Sassoc.stats c).Stats.accesses

(* --- policies --- *)

let test_policy_fifo_vs_lru () =
  (* FIFO evicts first-filled even if recently used; LRU keeps it. *)
  let run policy =
    let c = Sassoc.create (tiny_config ~policy ()) in
    for i = 0 to 3 do
      ignore (read_addr c (i * 64))
    done;
    ignore (read_addr c 0);
    (* re-use line 0 *)
    ignore (read_addr c (4 * 64));
    (* force an eviction *)
    match read_addr c 0 with Sassoc.Hit _ -> true | Sassoc.Miss _ -> false
  in
  check_bool "lru keeps reused line" true (run Policy.Lru);
  check_bool "fifo evicts first fill" false (run Policy.Fifo)

let test_policy_random_deterministic () =
  let run seed =
    let c = Sassoc.create (tiny_config ~policy:(Policy.Random seed) ()) in
    let t = Memtrace.Synthetic.uniform_random ~seed:5 ~base:0 ~span:4096 ~count:500 () in
    Trace.iter (fun a -> ignore (Sassoc.access_record c a)) t;
    (Sassoc.stats c).Stats.hits
  in
  check_int "same seed reproduces" (run 42) (run 42)

let test_policy_plru_sane () =
  let c = Sassoc.create (tiny_config ~policy:Policy.Bit_plru ()) in
  for i = 0 to 7 do
    ignore (read_addr c (i * 64))
  done;
  let s = Sassoc.stats c in
  check_int "eight misses" 8 s.Stats.misses;
  (* a just-filled line is MRU and must hit immediately *)
  match read_addr c (7 * 64) with
  | Sassoc.Hit _ -> ()
  | Sassoc.Miss _ -> Alcotest.fail "MRU line evicted by PLRU"

let test_policy_kind_strings () =
  List.iter
    (fun k ->
      match Policy.kind_of_string (Policy.kind_to_string k) with
      | Some k' -> check_bool "roundtrip" true (k = k')
      | None -> Alcotest.fail "kind string roundtrip failed")
    Policy.all_kinds;
  check_bool "unknown" true (Policy.kind_of_string "bogus" = None)

(* --- column cache composition --- *)

let test_column_cache_partition_isolation () =
  (* Two streams that would thrash a shared cache stop interfering once
     mapped to disjoint columns. *)
  let cfg = Sassoc.config ~line_size:16 ~size_bytes:512 ~ways:2 () in
  let colsize = Sassoc.column_size_bytes cfg in
  (* stream A: fits one column; stream B: large streaming sweep *)
  let a_trace i = i mod (colsize / 16) * 16 in
  let b_trace i = 0x100000 + (i * 16) in
  (* B issues four streaming accesses per A access, so in the shared cache B
     displaces A's lines faster than A revisits them. *)
  let run mask_of =
    let cc = Column_cache.create cfg ~mask_of in
    let hits_a = ref 0 and total_a = ref 0 in
    for i = 0 to 4000 do
      let ra = Column_cache.access cc (Access.make (a_trace i)) in
      incr total_a;
      (match ra with Sassoc.Hit _ -> incr hits_a | Sassoc.Miss _ -> ());
      for j = 0 to 3 do
        ignore (Column_cache.access cc (Access.make (b_trace ((4 * i) + j))))
      done
    done;
    float_of_int !hits_a /. float_of_int !total_a
  in
  let shared = run (fun _ -> Bitmask.full ~n:2) in
  let partitioned =
    run (fun addr -> if addr < 0x100000 then Bitmask.singleton 0 else Bitmask.singleton 1)
  in
  check_bool
    (Printf.sprintf "partitioned (%.3f) beats shared (%.3f)" partitioned shared)
    true
    (partitioned > shared +. 0.2)

let test_column_cache_remap () =
  let cfg = tiny_config () in
  let cc = Column_cache.create cfg ~mask_of:(fun _ -> Bitmask.singleton 0) in
  ignore (Column_cache.access cc (Access.make 0));
  Column_cache.set_mask_of cc (fun _ -> Bitmask.singleton 1);
  (* data still found in the old column after remap *)
  match Column_cache.access cc (Access.make 0) with
  | Sassoc.Hit { way } -> check_int "old column" 0 way
  | Sassoc.Miss _ -> Alcotest.fail "remap must not lose cached data"

let test_column_cache_run_stats () =
  let cc = Column_cache.standard (tiny_config ()) in
  let t = Trace.of_list [ Access.make 0; Access.make 0; Access.make 64 ] in
  let s = Column_cache.run cc t in
  check_int "accesses" 3 s.Stats.accesses;
  check_int "hits" 1 s.Stats.hits

(* --- cache properties --- *)

let arb_small_trace =
  QCheck.make
    ~print:(fun t -> Trace.to_string t)
    QCheck.Gen.(
      map
        (fun addrs -> Trace.of_list (List.map (fun a -> Access.make (a * 4)) addrs))
        (list_size (int_bound 300) (int_bound 1024)))

let prop_hits_plus_misses =
  QCheck.Test.make ~name:"hits + misses = accesses" ~count:100 arb_small_trace
    (fun t ->
      let c = Sassoc.create (tiny_config ~classify:true ()) in
      Trace.iter (fun a -> ignore (Sassoc.access_record c a)) t;
      let s = Sassoc.stats c in
      s.Stats.hits + s.Stats.misses = s.Stats.accesses
      && s.Stats.cold_misses + s.Stats.capacity_misses + s.Stats.conflict_misses
         = s.Stats.misses)

let prop_valid_lines_bounded =
  QCheck.Test.make ~name:"valid lines never exceed capacity" ~count:100
    arb_small_trace (fun t ->
      let cfg = tiny_config () in
      let c = Sassoc.create cfg in
      Trace.iter (fun a -> ignore (Sassoc.access_record c a)) t;
      Sassoc.valid_lines c <= cfg.Sassoc.sets * cfg.Sassoc.ways)

let prop_repeat_all_hits =
  QCheck.Test.make ~name:"second pass over cache-resident set always hits" ~count:50
    (QCheck.int_range 1 16) (fun nlines ->
      (* nlines distinct lines all mapping to distinct sets; fits cache *)
      let c = Sassoc.create (tiny_config ()) in
      let addrs = List.init nlines (fun i -> i * 16) in
      List.iter (fun a -> ignore (read_addr c a)) addrs;
      List.for_all
        (fun a -> match read_addr c a with Sassoc.Hit _ -> true | _ -> false)
        addrs)

let prop_mask_restricts_fills =
  QCheck.Test.make ~name:"fills only land in allowed columns" ~count:100
    (QCheck.pair arb_mask arb_small_trace) (fun (mask, t) ->
      let mask = Bitmask.inter mask (Bitmask.full ~n:4) in
      QCheck.assume (not (Bitmask.is_empty mask));
      let c = Sassoc.create (tiny_config ()) in
      let ok = ref true in
      Trace.iter
        (fun a ->
          match Sassoc.access_record c ~mask a with
          | Sassoc.Miss { way; _ } -> if not (Bitmask.mem mask way) then ok := false
          | Sassoc.Hit _ -> ())
        t;
      !ok)

let prop_graceful_repartition =
  QCheck.Test.make ~name:"remapping never turns a resident line into a miss" ~count:60
    arb_small_trace (fun t ->
      let c = Sassoc.create (tiny_config ()) in
      (* warm with mask {0,1} *)
      let warm = Bitmask.of_list [ 0; 1 ] in
      Trace.iter (fun a -> ignore (Sassoc.access_record c ~mask:warm a)) t;
      (* every currently-resident line must hit under any new mask *)
      let resident =
        List.concat_map (fun w -> Sassoc.lines_in_column c w) [ 0; 1; 2; 3 ]
      in
      List.for_all
        (fun line ->
          match
            Sassoc.access c ~mask:(Bitmask.singleton 3) ~kind:Access.Read (line * 16)
          with
          | Sassoc.Hit _ -> true
          | Sassoc.Miss _ -> false)
        resident)

(* --- model-based checking: Sassoc vs a naive reference cache --- *)

(* An obviously-correct (and obviously slow) set-associative cache: each set
   is a list of line tags ordered most-recently-used first (LRU) or by fill
   order (FIFO). Replacement restricted to [allowed] ways is modelled by
   keeping (way, tag) pairs and evicting the eligible victim. *)
module Reference = struct
  type t = {
    sets : int;
    ways : int;
    line_size : int;
    policy : Policy.kind;
    mutable clock : int;
    (* per set: (way, tag, last_use, fill_time) *)
    table : (int * int * int * int) list array;
  }

  let create ~sets ~ways ~line_size ~policy =
    { sets; ways; line_size; policy; clock = 0; table = Array.make sets [] }

  let access t ~allowed addr =
    t.clock <- t.clock + 1;
    let line = addr / t.line_size in
    let set = line mod t.sets in
    let tag = line / t.sets in
    let entries = t.table.(set) in
    match List.find_opt (fun (_, tg, _, _) -> tg = tag) entries with
    | Some (way, _, _, fill) ->
        t.table.(set) <-
          (way, tag, t.clock, fill)
          :: List.filter (fun (_, tg, _, _) -> tg <> tag) entries;
        `Hit
    | None ->
        let used_ways = List.map (fun (w, _, _, _) -> w) entries in
        let free =
          List.filter
            (fun w -> not (List.mem w used_ways))
            (Bitmask.to_list allowed)
        in
        let victim_way =
          match free with
          | w :: _ -> w
          | [] ->
              (* evict eligible entry with the smallest timestamp *)
              let eligible =
                List.filter (fun (w, _, _, _) -> Bitmask.mem allowed w) entries
              in
              let key (_, _, last, fill) =
                match t.policy with
                | Policy.Lru -> last
                | Policy.Fifo -> fill
                | Policy.Bit_plru | Policy.Random _ -> assert false
              in
              let best =
                List.fold_left
                  (fun acc e ->
                    match acc with
                    | None -> Some e
                    | Some b -> if key e < key b then Some e else acc)
                  None eligible
              in
              (match best with Some (w, _, _, _) -> w | None -> assert false)
        in
        t.table.(set) <-
          (victim_way, tag, t.clock, t.clock)
          :: List.filter (fun (w, _, _, _) -> w <> victim_way) entries;
        `Miss
end

let prop_matches_reference policy name =
  QCheck.Test.make ~name ~count:60
    (QCheck.pair arb_mask arb_small_trace)
    (fun (mask, t) ->
      let mask = Bitmask.inter mask (Bitmask.full ~n:4) in
      QCheck.assume (not (Bitmask.is_empty mask));
      let cfg = tiny_config ~policy () in
      let c = Sassoc.create cfg in
      let r =
        Reference.create ~sets:cfg.Sassoc.sets ~ways:cfg.Sassoc.ways
          ~line_size:cfg.Sassoc.line_size ~policy
      in
      let ok = ref true in
      Trace.iter
        (fun a ->
          let got =
            match Sassoc.access_record c ~mask a with
            | Sassoc.Hit _ -> `Hit
            | Sassoc.Miss _ -> `Miss
          in
          let expected = Reference.access r ~allowed:mask a.Access.addr in
          if got <> expected then ok := false)
        t;
      !ok)

let prop_lru_matches_reference =
  prop_matches_reference Policy.Lru "sassoc LRU matches reference model"

let prop_fifo_matches_reference =
  prop_matches_reference Policy.Fifo "sassoc FIFO matches reference model"

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mask_roundtrip;
      prop_mask_demorgan;
      prop_mask_union_count;
      prop_lru_set_capacity;
      prop_lru_set_model;
      prop_lru_set_model_removes;
      prop_hits_plus_misses;
      prop_valid_lines_bounded;
      prop_repeat_all_hits;
      prop_mask_restricts_fills;
      prop_graceful_repartition;
      prop_lru_matches_reference;
      prop_fifo_matches_reference;
    ]

let suites =
  [
    ( "cache.bitmask",
      [
        Alcotest.test_case "basic" `Quick test_bitmask_basic;
        Alcotest.test_case "set ops" `Quick test_bitmask_ops;
        Alcotest.test_case "full/complement" `Quick test_bitmask_full_complement;
        Alcotest.test_case "range" `Quick test_bitmask_range;
        Alcotest.test_case "string" `Quick test_bitmask_string;
        Alcotest.test_case "bounds" `Quick test_bitmask_bounds;
      ] );
    ( "cache.lru_set",
      [
        Alcotest.test_case "basic" `Quick test_lru_set_basic;
        Alcotest.test_case "remove/clear" `Quick test_lru_set_remove_clear;
      ] );
    ( "cache.sassoc",
      [
        Alcotest.test_case "config" `Quick test_sassoc_config;
        Alcotest.test_case "config invalid" `Quick test_sassoc_config_invalid;
        Alcotest.test_case "hit after miss" `Quick test_sassoc_hit_after_miss;
        Alcotest.test_case "LRU eviction order" `Quick test_sassoc_lru_eviction_order;
        Alcotest.test_case "mask confines fills" `Quick test_sassoc_mask_confines_fills;
        Alcotest.test_case "empty mask rejected" `Quick test_sassoc_empty_mask_rejected;
        Alcotest.test_case "effective mask zero" `Quick test_sassoc_effective_mask_zero;
        Alcotest.test_case "set inspection hooks" `Quick test_sassoc_set_inspection;
        Alcotest.test_case "lookup ignores mask" `Quick test_sassoc_lookup_ignores_mask;
        Alcotest.test_case "scratchpad exclusivity" `Quick test_sassoc_scratchpad_exclusivity;
        Alcotest.test_case "full mask = standard" `Quick test_sassoc_full_mask_is_standard;
        Alcotest.test_case "stats accounting" `Quick test_sassoc_stats_accounting;
        Alcotest.test_case "writeback" `Quick test_sassoc_writeback;
        Alcotest.test_case "3C classification" `Quick test_sassoc_classification;
        Alcotest.test_case "conflict classification" `Quick test_sassoc_conflict_classification;
        Alcotest.test_case "flush keeps stats" `Quick test_sassoc_flush_preserves_stats;
        Alcotest.test_case "invalidate line" `Quick test_sassoc_invalidate_line;
        Alcotest.test_case "probe is pure" `Quick test_sassoc_probe_no_side_effect;
      ] );
    ( "cache.policy",
      [
        Alcotest.test_case "fifo vs lru" `Quick test_policy_fifo_vs_lru;
        Alcotest.test_case "random deterministic" `Quick test_policy_random_deterministic;
        Alcotest.test_case "plru sane" `Quick test_policy_plru_sane;
        Alcotest.test_case "kind strings" `Quick test_policy_kind_strings;
      ] );
    ( "cache.column_cache",
      [
        Alcotest.test_case "partition isolation" `Quick test_column_cache_partition_isolation;
        Alcotest.test_case "remap keeps data" `Quick test_column_cache_remap;
        Alcotest.test_case "run stats" `Quick test_column_cache_run_stats;
      ] );
    ("cache.properties", qcheck_cases);
  ]
