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
  Alcotest.(check int) "nothing evicted" (Tlb.misses t)
    (List.length (Tlb.resident_pages t))

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
  Alcotest.(check bool) "every call evicted" true
    (Tlb.hits t = 0 && Tlb.misses t > 4 && List.length (Tlb.resident_pages t) = 4)

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

(* [replay_range] allocates nothing, whatever the range's length: the
   round-robin scheduler makes one call per slice, often of a handful of
   accesses, so a per-call cost would be paid per slice. *)
let test_replay_range () =
  let p = trace 4 in
  let one = Packed.length p / 4 in
  let sys = system () in
  let range stop () = ignore (System.replay_range sys p ~pos:0 ~stop : int) in
  List.iter
    (fun (name, stop) ->
      Alcotest.(check (float 0.))
        ("replay_range of " ^ name ^ ": words per call")
        0.
        (words_per_call ~reps:20 (range stop)))
    [ ("one access", 1); ("one copy", one); ("four copies", 4 * one) ]

(* --- Gen.iter_accesses --- *)

(* Minor words per access of a Zipf stream: the difference of two lengths
   cancels the CDF's fixed cost. The PRNG's boxed [int64] draws account for
   most of what is left; the rank search itself allocates nothing. *)
let test_gen_zipf () =
  let stream = Workloads.Gen.Zipf { items = 1 lsl 12; theta = 0.99 } in
  let run n () =
    Workloads.Gen.iter_accesses ~seed:1 ~n stream (fun ~kind:_ ~gap:_ _ -> ())
  in
  let per_access = (words (run 20_000) -. words (run 10_000)) /. 10_000. in
  if per_access >= 28. then
    Alcotest.failf "Zipf draw allocates %.1f words per access (limit 28)"
      per_access

(* --- Stack_dist feeds --- *)

module Stack_dist = Cache.Stack_dist

let zipf_packed ~items n =
  let b = Packed.Builder.create ~initial_capacity:n () in
  Workloads.Gen.iter_accesses ~seed:1 ~n
    (Workloads.Gen.Zipf { items; theta = 0.99 })
    (fun ~kind ~gap addr -> Packed.Builder.emit b ~kind ~gap addr);
  Packed.Builder.build b

(* Once every line of a trace has been seen, feeding it again allocates
   nothing: the stack misses it still makes ask the seen-line set, which
   answers without allocating, and the windowed engine seals its epochs
   into the ring it already has. *)
let test_stack_dist_refeed () =
  let p = zipf_packed ~items:(1 lsl 14) 20_000 in
  let exact = Stack_dist.create ~line_size:16 ~sets:64 ~max_ways:8 () in
  let sampled =
    Stack_dist.Sampled.create ~rate:0.25 ~line_size:16 ~sets:64 ~max_ways:8 ()
  in
  let win =
    Stack_dist.Windowed.create ~window:4096 ~epochs:8 ~line_size:16 ~sets:64
      ~max_ways:8 ()
  in
  (* [words_per_call] feeds twice before it counts: the first feed sees
     every line *)
  List.iter
    (fun (name, feed) ->
      Alcotest.(check (float 0.))
        (name ^ ": words of a re-feed") 0.
        (words_per_call ~reps:2 feed))
    [
      ("access_packed", fun () -> Stack_dist.access_packed exact p);
      ("Sampled.access_packed", fun () -> Stack_dist.Sampled.access_packed sampled p);
      ("Windowed.observe_packed", fun () -> Stack_dist.Windowed.observe_packed win p);
    ];
  Alcotest.(check bool) "re-feeds sealed epochs" true
    (Stack_dist.Windowed.retired_epochs win > 20)

(* A first feed inserts every line it meets into the seen-line set; only
   the set's growths allocate, and only its small tables reach the minor
   heap. *)
let test_stack_dist_first_feed () =
  let n = 100_000 in
  let p = zipf_packed ~items:(1 lsl 16) n in
  let exact = Stack_dist.create ~line_size:16 ~sets:64 ~max_ways:8 () in
  let per_access =
    words (fun () -> Stack_dist.access_packed exact p) /. float_of_int n
  in
  if per_access >= 0.05 then
    Alcotest.failf "first feed allocates %.4f words per access (limit 0.05)"
      per_access

(* --- Packed.Builder.push and the LZ77 jobs --- *)

let test_builder_push () =
  let b = Packed.Builder.create ~initial_capacity:4096 () in
  let hot = Packed.Builder.var b "hot" in
  (* the first access with a handle enters it in the var table *)
  Packed.Builder.push b ~kind:Access.Read ~var:hot ~gap:0 0;
  let i = ref 0 in
  check_no_alloc "push" (fun () ->
      incr i;
      Packed.Builder.push b ~kind:Access.Write
        ~var:(if !i land 1 = 0 then hot else Packed.Builder.untagged)
        ~gap:1 (!i * 16));
  Alcotest.(check int) "every push recorded" 2001 (Packed.Builder.length b)

(* A job is generated by two runs of the compressor core into one
   exact-size builder. What is left is per job, not per access: the input
   text, the core's tables and closures, and the columns' headers — 0.03
   words per access for a 4 KiB job, against 9.3 when each emit boxed its
   optional arguments and the builder grew by doubling. *)
let test_lz77_packed_trace () =
  let len = ref 0 in
  let w =
    words (fun () ->
        len :=
          Packed.length
            (Workloads.Lz77.packed_trace ~seed:1 ~input_len:4096 ~base:0 ()))
  in
  let per_access = w /. float_of_int !len in
  if per_access >= 0.5 then
    Alcotest.failf "Lz77.packed_trace allocates %.3f words per access (limit 0.5)"
      per_access

(* --- Ir.Interp --- *)

(* The interpreter resolves names before it runs, so an access costs an
   index and a push: what is left per access is the columns' growth and
   the per-run resolution, 0.6 words per access on idct against 26.8 when
   every access looked its names up in lists and hash tables. *)
let test_interp_idct () =
  let program = Workloads.Mpeg.program in
  let layout = Ir.Interp.sequential_layout program in
  let run () =
    Ir.Interp.packed_trace_of ~init:Workloads.Mpeg.init program ~proc:"idct"
      ~layout
  in
  let len = ref 0 in
  let w = words (fun () -> len := Packed.length (run ())) in
  let per_access = w /. float_of_int !len in
  if per_access >= 2. then
    Alcotest.failf "interpreting idct allocates %.3f words per access (limit 2)"
      per_access

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
        Alcotest.test_case "replay_range" `Quick test_replay_range;
      ] );
    ( "alloc.packed",
      [
        Alcotest.test_case "Builder.push" `Quick test_builder_push;
        Alcotest.test_case "Lz77.packed_trace" `Quick test_lz77_packed_trace;
      ] );
    ( "alloc.interp",
      [ Alcotest.test_case "packed_trace_of idct" `Quick test_interp_idct ] );
    ( "alloc.stack_dist",
      [
        Alcotest.test_case "re-feed of seen lines" `Quick
          test_stack_dist_refeed;
        Alcotest.test_case "first feed of a Zipf trace" `Quick
          test_stack_dist_first_feed;
      ] );
    ( "alloc.gen",
      [ Alcotest.test_case "iter_accesses zipf" `Quick test_gen_zipf ] );
  ]
