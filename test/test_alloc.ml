(* Allocation pins for the per-access paths of the batched replay loop.

   Minor-heap word counts are deterministic, so these tests pin them
   exactly: a per-call path must allocate no words at all, and a whole
   replay no words per access beyond a fixed per-call setup. Every closure
   and input is built before counting starts. *)

module Access = Memtrace.Access
module Packed = Memtrace.Packed
module Bitmask = Cache.Bitmask
module Sassoc = Cache.Sassoc
module Tlb = Vm.Tlb
module Page_table = Vm.Page_table
module System = Machine.System
module Event = Machine.Event

let words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0

(* Minor words [reps] calls of [f] allocate, net of the counting itself. *)
let words_per_call ?(reps = 1000) f =
  let loop () =
    for _ = 1 to reps do
      f ()
    done
  in
  let none () = () in
  loop ();
  (words loop -. words none) /. float_of_int reps

let check_no_alloc name f =
  Alcotest.(check (float 0.)) (name ^ ": words per call") 0. (words_per_call f)

(* --- Vm.Tlb.lookup_page_quick --- *)

let tlb ?(tinted = false) entries =
  let page_table = Page_table.create ~page_size:256 () in
  (* a tinted page makes misses take the page table's hash lookup *)
  if tinted then Page_table.set_tint page_table ~page:3 (Vm.Tint.make "blue");
  Tlb.create ~entries ~page_table

let lookup t page = ignore (Tlb.lookup_page_quick t page : Vm.Tint.t)

let test_tlb_hit () =
  let t = tlb ~tinted:true 4 in
  lookup t 5;
  check_no_alloc "hit" (fun () -> lookup t 5);
  Alcotest.(check int) "every call hit" 1 (Tlb.misses t)

let test_tlb_miss () =
  (* room for every page: each call misses without evicting *)
  let t = tlb ~tinted:true 4096 in
  let page = ref 0 in
  check_no_alloc "miss" (fun () ->
      incr page;
      lookup t !page);
  Alcotest.(check int) "nothing evicted" Cache.Lru_set.inserted
    (Tlb.last_lookup t)

let test_tlb_miss_evicts () =
  (* five pages cycling through four entries: each call evicts *)
  let t = tlb ~tinted:true 4 in
  let page = ref 0 in
  let next () =
    page := (!page + 1) mod 5;
    lookup t !page
  in
  for _ = 1 to 5 do
    next ()
  done;
  check_no_alloc "miss with eviction" next;
  Alcotest.(check bool) "the last call evicted" true (Tlb.last_lookup t >= 0)

let test_tlb_after_flush_page () =
  let t = tlb ~tinted:true 4 in
  List.iter (lookup t) [ 1; 2; 3 ];
  check_no_alloc "flush_page then lookup" (fun () ->
      ignore (Tlb.flush_page t 3 : bool);
      lookup t 3)

(* --- Sassoc.access_coded --- *)

(* 4 sets x 2 ways of 16-byte lines; lines 64 bytes apart share a set *)
let sassoc () = Sassoc.create (Sassoc.config ~size_bytes:128 ~ways:2 ())
let coded c ?mask addr = ignore (Sassoc.access_coded c ?mask ~kind:Access.Write addr : int)

let test_sassoc_hit () =
  let c = sassoc () in
  coded c 0;
  check_no_alloc "hit" (fun () -> coded c 0)

let test_sassoc_unpredicted_hit () =
  (* two resident lines of one set, alternating: every lookup misses the
     predicted way and scans *)
  let c = sassoc () in
  coded c 0;
  coded c 64;
  let addr = ref 0 in
  check_no_alloc "predicted-way miss" (fun () ->
      addr := 64 - !addr;
      coded c !addr);
  Alcotest.(check int) "all hits" 2 (Sassoc.stats c).Cache.Stats.misses

let cycling_misses c f =
  (* three lines of one 2-way set: every access misses and writes back *)
  let addr = ref 0 in
  let next () =
    addr := (!addr + 64) mod 192;
    f c !addr
  in
  next ();
  next ();
  next

let test_sassoc_miss () =
  let c = sassoc () in
  check_no_alloc "miss, no mask" (cycling_misses c (fun c a -> coded c a));
  Alcotest.(check bool) "dirty victims written back" true
    ((Sassoc.stats c).Cache.Stats.writebacks > 1000)

let test_sassoc_miss_masked () =
  let c = sassoc () in
  let mask = Bitmask.singleton 1 in
  let some_mask = Some mask in
  check_no_alloc "miss, optional mask"
    (cycling_misses c (fun c a -> coded c ?mask:some_mask a));
  check_no_alloc "miss, access_masked"
    (cycling_misses c (fun c a ->
         ignore (Sassoc.access_masked c ~mask ~kind:Access.Read a : int)))

(* --- System.run_packed* --- *)

(* A trace with TLB misses and evictions, cache misses, writebacks, L2 hits
   and DRAM traffic: even accesses cycle a 2 KiB hot set (past the 1 KiB
   L1, inside the 4 KiB L2), odd ones stride through 12 KiB (past both),
   over 56 pages against a 32-entry TLB. *)
let trace copies =
  let one =
    List.init 1536 (fun i ->
        let addr =
          if i mod 2 = 0 then 0x40000 + (i / 2 * 5 mod 128 * 16)
          else (i / 2 * 37 mod 768 * 16) + (i mod 4 * 4)
        in
        if i mod 3 = 0 then Access.write ~gap:(i mod 5) addr
        else Access.make ~gap:(i mod 5) addr)
  in
  Packed.of_list (List.concat (List.init copies (fun _ -> one)))

let requests = Array.init 64 (fun i -> (i * 24, (i * 24) + 16))

let system () =
  System.create
    (System.config
       ~l2:(Sassoc.config ~size_bytes:4096 ~ways:4 ())
       (Sassoc.config ~size_bytes:1024 ~ways:4 ()))

(* The replay of four copies of the trace must allocate exactly what the
   replay of one copy does: nothing per access. *)
let check_wrapper name run =
  let short = trace 1 and long = trace 4 in
  let cost p =
    let sys = system () in
    words (fun () -> run sys p)
  in
  ignore (cost short);
  Alcotest.(check (float 0.)) (name ^ ": words of 3 extra copies") (cost short)
    (cost long)

let events = Event.default_config

let test_run_packed () =
  check_wrapper "run_packed" (fun sys p -> ignore (System.run_packed sys p))

let test_run_packed_requests () =
  check_wrapper "run_packed_requests" (fun sys p ->
      ignore (System.run_packed_requests sys p ~requests))

let test_run_packed_events () =
  check_wrapper "run_packed_events" (fun sys p ->
      ignore (System.run_packed_events sys ~events p))

let test_run_packed_requests_events () =
  check_wrapper "run_packed_requests_events" (fun sys p ->
      ignore (System.run_packed_requests_events sys ~events p ~requests))

let suites =
  [
    ( "alloc.tlb",
      [
        Alcotest.test_case "lookup_page_quick hit" `Quick test_tlb_hit;
        Alcotest.test_case "lookup_page_quick miss" `Quick test_tlb_miss;
        Alcotest.test_case "lookup_page_quick miss with eviction" `Quick
          test_tlb_miss_evicts;
        Alcotest.test_case "lookup_page_quick after flush_page" `Quick
          test_tlb_after_flush_page;
      ] );
    ( "alloc.sassoc",
      [
        Alcotest.test_case "access_coded hit" `Quick test_sassoc_hit;
        Alcotest.test_case "access_coded predicted-way miss" `Quick
          test_sassoc_unpredicted_hit;
        Alcotest.test_case "access_coded miss without mask" `Quick
          test_sassoc_miss;
        Alcotest.test_case "access_coded miss with mask" `Quick
          test_sassoc_miss_masked;
      ] );
    ( "alloc.system",
      [
        Alcotest.test_case "run_packed" `Quick test_run_packed;
        Alcotest.test_case "run_packed_requests" `Quick
          test_run_packed_requests;
        Alcotest.test_case "run_packed_events" `Quick test_run_packed_events;
        Alcotest.test_case "run_packed_requests_events" `Quick
          test_run_packed_requests_events;
      ] );
  ]
