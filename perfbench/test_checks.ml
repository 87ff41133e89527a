(* Self-test of the benchmark's output checks: each check must pass on a
   reference input and report a failure when one access of that input is
   altered, so no check is one that can never fail. *)

open Colcache
open Perfbench
module System = Machine.System
module Stack_dist = Cache.Stack_dist
module Packed = Memtrace.Packed

(* Copy of [p] with access [i] moved to [addr]. *)
let with_addr p i addr =
  let b = Packed.Builder.create () in
  for j = 0 to Packed.length p - 1 do
    let a = Packed.get p j in
    Packed.Builder.add b (if j = i then Memtrace.Access.with_addr a addr else a)
  done;
  Packed.Builder.build b

(* Alter the first access (that [keep] accepts) which hits in an LRU
   cache of geometry [cache]: it moves to a line of the same set beyond
   every address of the trace, on a page no access touches, so it becomes
   a cold miss in the cache and the TLB. Under LRU an extra distinct line
   only pushes others deeper, so no later access turns from miss to hit
   and every miss count strictly grows. *)
let alter ?(keep = fun _ -> true) (cache : Cache.Sassoc.config) p =
  let n = Packed.length p in
  let c = Cache.Sassoc.create { cache with policy = Cache.Policy.Lru } in
  let rec find i =
    if i >= n then failwith "reference trace has no hit to alter"
    else
      let r = Cache.Sassoc.access_coded c ~kind:(Packed.kind p i) (Packed.addr p i) in
      if r land 1 = 0 && keep i then i else find (i + 1)
  in
  let i = find 0 in
  let top = ref 0 in
  for j = 0 to n - 1 do
    top := max !top (Packed.addr p j)
  done;
  let stride = cache.sets * cache.line_size in
  with_addr p i (Packed.addr p i + (((!top / stride) + 2) * stride))

let config = Inputs.replay_config
let cache = config.System.cache
let sets = cache.Cache.Sassoc.sets
let line_size = cache.Cache.Sassoc.line_size

let zipf =
  (Workloads.Gen.emit ~seed:7 ~n:20_000
     (Workloads.Gen.Zipf { items = 4096; theta = 0.99 }))
    .Workloads.Gen.packed

let zipf' = alter cache zipf
let kv = Inputs.kv ~seed:7 ~requests:2_000
let kv' = alter cache kv.Workloads.Gen.packed

let expect ~ok (o : Checks.outcome) () =
  match (ok, o.failure) with
  | true, None | false, Some _ -> ()
  | true, Some d -> Alcotest.failf "%s: unexpected failure: %s" o.name d
  | false, None -> Alcotest.failf "%s: altered input passed" o.name

let case name ~clean ~altered =
  [
    Alcotest.test_case (name ^ " passes on the reference") `Quick (fun () ->
        expect ~ok:true (clean ()) ());
    Alcotest.test_case (name ^ " fails on one altered access") `Quick (fun () ->
        expect ~ok:false (altered ()) ());
  ]

let replay p = System.run_packed (System.create config) p
let requests = kv.Workloads.Gen.requests

let blocking p = System.run_packed_requests (System.create config) p ~requests

let events p =
  System.run_packed_requests_events (System.create config)
    ~events:Machine.Event.default_config p ~requests

let g = Inputs.mrc_geometry

let exact p =
  let e = Stack_dist.create ~line_size ~sets ~max_ways:g.Checks.max_ways () in
  Stack_dist.access_packed e p;
  e

let sampled p =
  let e =
    Stack_dist.Sampled.create ~seed:0 ~rate:0.1 ~line_size ~sets
      ~max_ways:g.Checks.max_ways ()
  in
  Stack_dist.Sampled.access_packed e p;
  e

(* The sampled engine only sees its selected sets: alter an access there. *)
let zipf_sampled' =
  let probe = sampled zipf in
  alter cache
    ~keep:(fun i -> Stack_dist.Sampled.would_sample probe (Packed.addr zipf i))
    zipf

let pipeline = Inputs.mpeg_pipeline ()
let proc = List.hd Workloads.Mpeg.routines
let routine = Pipeline.packed_trace_of pipeline ~proc

let tests =
  case "replay = Sweep.standard"
    ~clean:(fun () -> Checks.replay_matches_sweep config ~got:(replay zipf) zipf)
    ~altered:(fun () -> Checks.replay_matches_sweep config ~got:(replay zipf') zipf)
  @ case "event counts = blocking counts"
      ~clean:(fun () ->
        Checks.events_match_blocking ~blocking:(blocking kv.packed) ~events:(events kv.packed))
      ~altered:(fun () ->
        Checks.events_match_blocking ~blocking:(blocking kv.packed) ~events:(events kv'))
  @ case "request latencies = Sweep.standard"
      ~clean:(fun () ->
        Checks.latencies_match_sweep config ~got:(blocking kv.packed) ~requests kv.packed)
      ~altered:(fun () ->
        Checks.latencies_match_sweep config ~got:(blocking kv') ~requests kv.packed)
  @ case "exact mrc = of_packed_parallel"
      ~clean:(fun () -> Checks.exact_mrc_matches_sharded g ~got:(exact zipf) zipf)
      ~altered:(fun () -> Checks.exact_mrc_matches_sharded g ~got:(exact zipf') zipf)
  @ case "sampled mrc = sharded sampled sweep"
      ~clean:(fun () ->
        Checks.sampled_mrc_matches_sharded g ~rate:0.1 ~seed:0 ~got:(sampled zipf) zipf)
      ~altered:(fun () ->
        Checks.sampled_mrc_matches_sharded g ~rate:0.1 ~seed:0
          ~got:(sampled zipf_sampled') zipf)
  (* The error bound is a tolerance that one access cannot cross, so its
     planted failure is the soak's forgotten-rescale mutation instead: the
     estimate deflated by the sampling rate. *)
  @ case "sampled mrc error within bound"
      ~clean:(fun () ->
        let s = sampled zipf in
        Checks.sampled_mrc_within_bound ~est:(Stack_dist.Sampled.mrc_est s)
          ~sampled_accesses:(Stack_dist.Sampled.sampled_accesses s)
          ~exact_mrc:(Stack_dist.mrc (exact zipf)) ~ways:g.Checks.max_ways)
      ~altered:(fun () ->
        let s = sampled zipf in
        let rate = Stack_dist.Sampled.effective_rate s in
        Checks.sampled_mrc_within_bound
          ~est:(Array.mapi (fun a m -> if a = 0 then m else m *. rate)
                  (Stack_dist.Sampled.mrc_est s))
          ~sampled_accesses:(Stack_dist.Sampled.sampled_accesses s)
          ~exact_mrc:(Stack_dist.mrc (exact zipf)) ~ways:g.Checks.max_ways)
  @ case "routine run_packed = Pipeline.run_standard"
      ~clean:(fun () -> Checks.routine_matches_closed_form pipeline ~proc routine)
      ~altered:(fun () ->
        Checks.routine_matches_closed_form pipeline ~proc
          (alter pipeline.Pipeline.cache routine))
  @ case "every pass gives the same outputs"
      ~clean:(fun () ->
        Checks.passes_agree (List.map Fields.render_stats [ replay zipf; replay zipf ]))
      ~altered:(fun () ->
        Checks.passes_agree (List.map Fields.render_stats [ replay zipf; replay zipf' ]))

let () = Alcotest.run "perfbench" [ ("checks", tests) ]
