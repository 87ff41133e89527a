(* Tests for the event-driven timing core: the banked DRAM model, the MSHR
   file, the System event-replay paths, the epoch-synchronized multitask
   scheduler, and the knob validation the CLI relies on. *)

module Access = Memtrace.Access
module Packed = Memtrace.Packed
module Trace = Memtrace.Trace
module Sassoc = Cache.Sassoc
module Timing = Machine.Timing
module Dram = Machine.Dram
module Mshr = Machine.Mshr
module Event = Machine.Event
module System = Machine.System
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency
module Epoch = Sched.Epoch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- knob validation: bad geometry is an error, never a clamp --- *)

let test_event_config_rejects_mlp () =
  check_bool "mlp 0" true (raises_invalid (fun () -> Event.config ~mlp:0 ()));
  check_bool "mlp -1" true
    (raises_invalid (fun () -> Event.config ~mlp:(-1) ()))

let test_dram_config_rejects_knobs () =
  check_bool "banks 0" true
    (raises_invalid (fun () -> Dram.config ~banks:0 ()));
  check_bool "row_bytes 0" true
    (raises_invalid (fun () -> Dram.config ~row_bytes:0 ()));
  check_bool "queue_depth 0" true
    (raises_invalid (fun () -> Dram.config ~queue_depth:0 ()))

let test_dram_create_rejects_bad_timing () =
  check_bool "zero row-hit latency" true
    (raises_invalid (fun () ->
         Dram.create
           { Timing.default with Timing.dram_row_hit_cycles = 0 }
           (Dram.config ())));
  check_bool "conflict below row hit" true
    (raises_invalid (fun () ->
         Dram.create
           { Timing.default with Timing.dram_row_conflict_cycles = 5 }
           (Dram.config ())))

let test_mshr_rejects_zero_size () =
  check_bool "size 0" true (raises_invalid (fun () -> Mshr.create ~size:0))

let small_job name base n =
  {
    Epoch.name;
    packed =
      Packed.of_list (List.init n (fun i -> Access.make (base + (i * 16))));
  }

let epoch_system (_ : Epoch.job) =
  System.create
    (System.config (Sassoc.config ~line_size:16 ~size_bytes:512 ~ways:2 ()))

let test_epoch_rejects_bad_jobs () =
  let tasks = [ small_job "A" 0 8; small_job "B" 0x1000 8 ] in
  check_bool "jobs 0" true
    (raises_invalid (fun () ->
         Epoch.run ~jobs:0 ~make_system:epoch_system tasks));
  check_bool "more domains than tasks" true
    (raises_invalid (fun () ->
         Epoch.run ~jobs:3 ~make_system:epoch_system tasks));
  check_bool "empty task list" true
    (raises_invalid (fun () -> Epoch.run ~make_system:epoch_system []));
  check_bool "epoch_accesses 0" true
    (raises_invalid (fun () ->
         Epoch.run ~epoch_accesses:0 ~make_system:epoch_system tasks))

(* --- DRAM: hand-computed semantics --- *)

let test_dram_open_row_semantics () =
  (* Same row twice on a cold bank: activation (conflict) then open-row
     hit, back to back on the single bank resource. *)
  let d = Dram.create Timing.default (Dram.config ~banks:2 ~row_bytes:64 ()) in
  check_int "cold pays activation from time 0" 28 (Dram.request d ~now:0 ~addr:0);
  check_int "cold is not a row hit" 1 (Dram.stats d).Dram.conflicts;
  check_int "bank is serial, then open-row latency" 40
    (Dram.request d ~now:0 ~addr:16);
  check_int "same row hits" 1 (Dram.stats d).Dram.hits;
  (* row 1 lands on the other bank and proceeds in parallel *)
  check_int "other bank starts immediately" 28 (Dram.request d ~now:0 ~addr:64);
  let s = Dram.stats d in
  check_int "totals" 3 s.Dram.total;
  check_int "hits" 1 s.Dram.hits;
  check_int "conflicts" 2 s.Dram.conflicts

let test_dram_queue_bounds_flight () =
  (* queue_depth 1: the second request waits for the first to complete
     even on a different bank. *)
  let d =
    Dram.create Timing.default
      (Dram.config ~banks:4 ~row_bytes:64 ~queue_depth:1 ())
  in
  check_int "first finishes" 28 (Dram.request d ~now:0 ~addr:0);
  check_int "admitted when the channel drains" 56
    (Dram.request d ~now:0 ~addr:64);
  check_int "one queue stall" 1 (Dram.stats d).Dram.stalls

(* --- DRAM: qcheck properties --- *)

(* A random issue sequence: per request a small time gap and an address. *)
let arb_dram_trace =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (g, a) -> Printf.sprintf "+%d:0x%x" g a) l))
    QCheck.Gen.(
      list_size (int_range 1 60)
        (pair (int_bound 40) (int_bound 4095)))

(* Per request: its completion time and whether it hit the open row (read
   from the row-hit count). *)
let replay_dram cfg trace =
  let d = Dram.create Timing.default cfg in
  let now = ref 0 in
  let outs =
    List.map
      (fun (gap, addr) ->
        now := !now + gap;
        let hits = (Dram.stats d).Dram.hits in
        let finish = Dram.request d ~now:!now ~addr in
        (finish, (Dram.stats d).Dram.hits > hits))
      trace
  in
  (outs, Dram.stats d)

let service row_hit =
  if row_hit then Timing.default.Timing.dram_row_hit_cycles
  else Timing.default.Timing.dram_row_conflict_cycles

let bank_of (cfg : Dram.config) addr = addr / cfg.Dram.row_bytes mod cfg.Dram.banks

let prop_dram_deterministic =
  QCheck.Test.make ~name:"dram: fixed sequence, identical outcomes" ~count:200
    arb_dram_trace (fun trace ->
      let cfg = Dram.config ~banks:2 ~row_bytes:256 ~queue_depth:4 () in
      replay_dram cfg trace = replay_dram cfg trace)

let prop_dram_row_hit_cheaper =
  QCheck.Test.make
    ~name:"dram: row hits price strictly below row conflicts" ~count:200
    arb_dram_trace (fun trace ->
      (* a queue deeper than any trace never stalls: a request starts when
         it is issued or when its bank frees, whichever is later *)
      let cfg = Dram.config ~banks:2 ~row_bytes:256 ~queue_depth:64 () in
      let outs, stats = replay_dram cfg trace in
      let bank_free = Array.make cfg.Dram.banks 0 in
      let now = ref 0 in
      stats.Dram.stalls = 0
      && List.for_all2
           (fun (gap, addr) (finish, row_hit) ->
             now := !now + gap;
             let bank = bank_of cfg addr in
             let start = max !now bank_free.(bank) in
             bank_free.(bank) <- finish;
             finish - start = service row_hit)
           trace outs
      && Timing.default.Timing.dram_row_hit_cycles
         < Timing.default.Timing.dram_row_conflict_cycles)

let prop_dram_bank_fifo =
  QCheck.Test.make ~name:"dram: per-bank service is FIFO and serial"
    ~count:200 arb_dram_trace (fun trace ->
      let cfg = Dram.config ~banks:3 ~row_bytes:128 ~queue_depth:4 () in
      let outs, _ = replay_dram cfg trace in
      let last_finish = Array.make cfg.Dram.banks 0 in
      let now = ref 0 in
      List.for_all2
        (fun (gap, addr) (finish, row_hit) ->
          now := !now + gap;
          let bank = bank_of cfg addr in
          let start = finish - service row_hit in
          let ok = start >= !now && start >= last_finish.(bank) in
          last_finish.(bank) <- finish;
          ok)
        trace outs)

(* --- MSHR merges never change functional counts --- *)

(* Strip the fields the event core is allowed to change: time and its own
   MSHR/DRAM telemetry. Everything else must match the blocking replay. *)
let functional_counts (r : Run_stats.t) =
  {
    r with
    Run_stats.cycles = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    dram_row_hits = 0;
    dram_row_conflicts = 0;
  }

let arb_access_trace =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (Printf.sprintf "0x%x") l))
    QCheck.Gen.(list_size (int_range 1 120) (int_bound 1023))

let prop_event_counts_match_inorder =
  QCheck.Test.make
    ~name:"event core: merged misses never change functional counts"
    ~count:150 arb_access_trace (fun addrs ->
      (* A tiny cache over a tiny footprint so delayed hits (merges) and
         MSHR stalls are both frequent. *)
      let fresh () =
        System.create
          (System.config
             (Sassoc.config ~line_size:16 ~size_bytes:128 ~ways:2 ()))
      in
      let packed = Packed.of_list (List.map Access.make addrs) in
      let inorder = System.run_packed (fresh ()) packed in
      let events =
        Event.config ~mlp:2
          ~dram:(Dram.config ~banks:2 ~row_bytes:64 ~queue_depth:2 ())
          ()
      in
      let event = System.run_packed_events (fresh ()) ~events packed in
      functional_counts inorder = functional_counts event)

(* --- request latency: retire minus issue, not a per-access sum --- *)

let test_latency_no_double_count () =
  (* Two cold read misses to different DRAM banks in one request window,
     mlp 2. Blocking: each access pays TLB walk (8) + probe (1) + flat
     miss penalty (20), so the window is 58 cycles. Event core: the
     second fill overlaps the first — issue 0, TLB+probe put the demand
     fetches at t=9 (bank 0) and t=18 (bank 1), both cold activations
     (28), so the window retires at 18 + 28 = 46. The naive per-access
     sum would be (37 - 0) + (46 - 9) = 74, double-counting the overlap;
     retire-minus-issue must report 46. *)
  let packed =
    Packed.of_list [ Access.make 0x000; Access.make 0x400 ]
  in
  let requests = [| (0, 2) |] in
  let fresh () =
    System.create
      (System.config (Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ()))
  in
  let blocking = System.run_packed_requests (fresh ()) packed ~requests in
  check_int "blocking window" 58 (Latency.p50 blocking.Run_stats.requests);
  let events =
    Event.config ~mlp:2
      ~dram:(Dram.config ~banks:4 ~row_bytes:1024 ~queue_depth:8 ())
      ()
  in
  let event =
    System.run_packed_requests_events (fresh ()) ~events packed ~requests
  in
  check_int "one request measured" 1 (Latency.count event.Run_stats.requests);
  check_int "overlapped window is retire minus issue" 46
    (Latency.p50 event.Run_stats.requests);
  check_int "run clock drains to the last fill" 46 event.Run_stats.cycles;
  check_bool "overlap beats the blocking window" true
    (Latency.p50 event.Run_stats.requests
    < Latency.p50 blocking.Run_stats.requests)

let test_event_mlp1_still_merges () =
  (* Even with a single MSHR a hit on the in-flight line is a delayed hit,
     not a second fill: same line touched twice back to back. *)
  let packed = Packed.of_list [ Access.make 0x0; Access.make 0x4 ] in
  let sys =
    System.create
      (System.config (Sassoc.config ~line_size:16 ~size_bytes:256 ~ways:2 ()))
  in
  let stats =
    System.run_packed_events sys ~events:(Event.config ~mlp:1 ()) packed
  in
  check_int "one miss" 1 stats.Run_stats.cache.Cache.Stats.misses;
  check_int "one hit" 1 stats.Run_stats.cache.Cache.Stats.hits;
  check_int "the hit merged into the fill" 1 stats.Run_stats.mshr_merges

let test_event_mshr_stalls_counted () =
  (* mlp 1 and three cold misses: the second and third must wait for the
     only slot to drain. *)
  let packed =
    Packed.of_list [ Access.make 0x0; Access.make 0x40; Access.make 0x80 ]
  in
  let sys =
    System.create
      (System.config (Sassoc.config ~line_size:16 ~size_bytes:256 ~ways:2 ()))
  in
  let stats =
    System.run_packed_events sys ~events:(Event.config ~mlp:1 ()) packed
  in
  check_int "structural stalls" 2 stats.Run_stats.mshr_stalls

(* --- the epoch scheduler --- *)

let epoch_jobs () =
  [ small_job "A" 0 40; small_job "B" 0x10000 25; small_job "C" 0x20000 60 ]

let test_epoch_all_work_completes () =
  let out = Epoch.run ~epoch_accesses:16 ~make_system:epoch_system (epoch_jobs ()) in
  List.iter
    (fun (name, n) ->
      match Epoch.find_job out name with
      | Some s ->
          check_int (name ^ " accesses") n
            s.Epoch.stats.Run_stats.memory_accesses
      | None -> Alcotest.fail "missing job")
    [ ("A", 40); ("B", 25); ("C", 60) ];
  check_int "timeline length is the longest job" 4 out.Epoch.epochs

let test_epoch_outcome_independent_of_jobs () =
  (* The whole outcome — every counter, every epoch boundary, the
     makespan — must be structurally identical whatever the worker-domain
     count; only wall-clock time may change. *)
  let run jobs =
    Epoch.run ~jobs ~epoch_accesses:16 ~make_system:epoch_system
      (epoch_jobs ())
  in
  let serial = run 1 in
  check_bool "jobs=2 replays identically" true (serial = run 2);
  check_bool "jobs=3 replays identically" true (serial = run 3)

let test_epoch_events_outcome_independent_of_jobs () =
  let events =
    Event.config ~mlp:2 ~dram:(Dram.config ~banks:2 ~queue_depth:2 ()) ()
  in
  let run jobs =
    Epoch.run ~jobs ~epoch_accesses:16 ~events ~make_system:epoch_system
      (epoch_jobs ())
  in
  let serial = run 1 in
  check_bool "event replay is domain-count invariant" true (serial = run 3)

let test_epoch_makespan_is_gang_max () =
  (* One epoch per job (epoch_accesses beyond every trace): the gang
     timeline advances by the slowest job, so the makespan is the max of
     the per-job cycles and every job finishes at that boundary. *)
  let out = Epoch.run ~epoch_accesses:4096 ~make_system:epoch_system (epoch_jobs ()) in
  let cycles =
    List.map
      (fun (s : Epoch.job_stats) -> s.Epoch.stats.Run_stats.cycles)
      out.Epoch.per_job
  in
  check_int "single gang epoch" 1 out.Epoch.epochs;
  check_int "makespan is the slowest job" (List.fold_left max 0 cycles)
    out.Epoch.makespan

let test_multitask_experiment_agrees_across_jobs () =
  let t = Colcache.Experiments.Multitask_domains.run ~jobs:2 () in
  check_bool "parallel outcome identical to serial" true
    t.Colcache.Experiments.Multitask_domains.identical_across_jobs;
  check_int "one row per task"
    Colcache.Experiments.Multitask_domains.task_count
    (List.length t.Colcache.Experiments.Multitask_domains.rows)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dram_deterministic;
      prop_dram_row_hit_cheaper;
      prop_dram_bank_fifo;
      prop_event_counts_match_inorder;
    ]

let suites =
  [
    ( "machine.event.knobs",
      [
        Alcotest.test_case "Event.config rejects mlp < 1" `Quick
          test_event_config_rejects_mlp;
        Alcotest.test_case "Dram.config rejects zero knobs" `Quick
          test_dram_config_rejects_knobs;
        Alcotest.test_case "Dram.create rejects bad timing" `Quick
          test_dram_create_rejects_bad_timing;
        Alcotest.test_case "Mshr.create rejects size 0" `Quick
          test_mshr_rejects_zero_size;
        Alcotest.test_case "Epoch.run rejects bad job counts" `Quick
          test_epoch_rejects_bad_jobs;
      ] );
    ( "machine.event.dram",
      Alcotest.test_case "open-row semantics, hand-computed" `Quick
        test_dram_open_row_semantics
      :: Alcotest.test_case "channel queue bounds flight" `Quick
           test_dram_queue_bounds_flight
      :: qcheck_cases );
    ( "machine.event.system",
      [
        Alcotest.test_case "request latency is retire minus issue" `Quick
          test_latency_no_double_count;
        Alcotest.test_case "delayed hit merges at mlp 1" `Quick
          test_event_mlp1_still_merges;
        Alcotest.test_case "MSHR structural stalls counted" `Quick
          test_event_mshr_stalls_counted;
      ] );
    ( "sched.epoch",
      [
        Alcotest.test_case "all work completes" `Quick
          test_epoch_all_work_completes;
        Alcotest.test_case "outcome independent of worker domains" `Quick
          test_epoch_outcome_independent_of_jobs;
        Alcotest.test_case "event outcome independent of domains" `Quick
          test_epoch_events_outcome_independent_of_jobs;
        Alcotest.test_case "makespan is the gang max" `Quick
          test_epoch_makespan_is_gang_max;
        Alcotest.test_case "multitask experiment domain-invariant" `Quick
          test_multitask_experiment_agrees_across_jobs;
      ] );
  ]
