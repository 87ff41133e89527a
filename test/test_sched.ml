(* Tests for the round-robin multitasking scheduler. *)

module Trace = Memtrace.Trace
module Access = Memtrace.Access
module RR = Sched.Round_robin

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ()
let fresh_system () = Machine.System.create (Machine.System.config cache)

let job name addrs =
  { RR.name; trace = Trace.of_list (List.map Access.make addrs) }

let seq name base n = job name (List.init n (fun i -> base + (i * 16)))

let test_all_work_completes () =
  let jobs = [ seq "A" 0 10; seq "B" 0x1000 25; seq "C" 0x2000 3 ] in
  let out = RR.run ~system:(fresh_system ()) ~quantum:4 jobs in
  List.iter
    (fun (name, n) ->
      match RR.find_job out name with
      | Some s -> check_int (name ^ " accesses") n s.RR.memory_accesses
      | None -> Alcotest.fail "missing job")
    [ ("A", 10); ("B", 25); ("C", 3) ]

let test_instructions_counted () =
  let t = Trace.of_list [ Access.make ~gap:4 0; Access.make ~gap:2 16 ] in
  let out = RR.run ~system:(fresh_system ()) ~quantum:100 [ { RR.name = "J"; trace = t } ] in
  match RR.find_job out "J" with
  | Some s -> check_int "instructions" 8 s.RR.instructions
  | None -> Alcotest.fail "missing"

let test_single_job_no_switches () =
  let out = RR.run ~system:(fresh_system ()) ~quantum:2 [ seq "A" 0 20 ] in
  check_int "no switches with one job" 0 out.RR.switches

let test_switch_counting () =
  (* 2 jobs x 4 accesses, quantum 2 -> slices A,B,A,B: 3 switches *)
  let out =
    RR.run ~system:(fresh_system ()) ~quantum:2 [ seq "A" 0 4; seq "B" 0x1000 4 ]
  in
  check_int "switches" 3 out.RR.switches

let test_switch_cost_in_total_only () =
  let jobs () = [ seq "A" 0 4; seq "B" 0x1000 4 ] in
  let cheap =
    RR.run ~switch_cycles:0 ~system:(fresh_system ()) ~quantum:2 (jobs ())
  in
  let pricey =
    RR.run ~switch_cycles:1000 ~system:(fresh_system ()) ~quantum:2 (jobs ())
  in
  check_int "job cycles unaffected by switch cost"
    (match RR.find_job cheap "A" with Some s -> s.RR.cycles | None -> -1)
    (match RR.find_job pricey "A" with Some s -> s.RR.cycles | None -> -2);
  check_int "total carries switch cost"
    (cheap.RR.total_cycles + (3 * 1000))
    pricey.RR.total_cycles

let test_uneven_jobs_drop_out () =
  (* the short job finishes; the long one keeps running alone *)
  let out =
    RR.run ~system:(fresh_system ()) ~quantum:1 [ seq "short" 0 2; seq "long" 0x1000 50 ]
  in
  (match RR.find_job out "long" with
  | Some s -> check_int "long completes" 50 s.RR.memory_accesses
  | None -> Alcotest.fail "missing");
  check_bool "slices of long exceed short's" true
    ((match RR.find_job out "long" with Some s -> s.RR.slices | None -> 0)
    > (match RR.find_job out "short" with Some s -> s.RR.slices | None -> 0))

let test_quantum_validation () =
  check_bool "quantum 0 rejected" true
    (try ignore (RR.run ~system:(fresh_system ()) ~quantum:0 [ seq "A" 0 1 ]); false
     with Invalid_argument _ -> true);
  check_bool "no jobs rejected" true
    (try ignore (RR.run ~system:(fresh_system ()) ~quantum:1 []); false
     with Invalid_argument _ -> true)

let test_tlb_flush_on_switch_costs () =
  (* with flushes, each slice re-misses the TLB: more cycles for job A *)
  let jobs () = [ seq "A" 0 200; seq "B" 0x100000 200 ] in
  let tagged =
    RR.run ~flush_tlb_on_switch:false ~system:(fresh_system ()) ~quantum:1 (jobs ())
  in
  let flushed =
    RR.run ~flush_tlb_on_switch:true ~system:(fresh_system ()) ~quantum:1 (jobs ())
  in
  let cycles o =
    match RR.find_job o "A" with Some s -> s.RR.cycles | None -> -1
  in
  check_bool "flushing costs cycles" true (cycles flushed > cycles tagged)

let test_interference_depends_on_quantum () =
  (* two jobs whose footprints alias in the cache: bigger quantum = fewer
     misses for each (the fig5 mechanism) *)
  let walk name base =
    {
      RR.name;
      trace = Memtrace.Synthetic.repeat_walk ~base ~len:96 ~stride:16 ~passes:40 ();
    }
  in
  let misses quantum =
    let out =
      RR.run ~system:(fresh_system ()) ~quantum
        [ walk "A" 0; walk "B" 0x10000 ]
    in
    match RR.find_job out "A" with Some s -> s.RR.misses | None -> -1
  in
  (* each working set is 1.5 KB (fits the 2 KB cache alone); together they
     are 3 KB, so fine-grained mixing thrashes where long bursts do not *)
  check_bool "small quantum misses more" true (misses 16 > misses 100000)

let test_partitioned_job_flat_across_quanta () =
  let jobA () =
    {
      RR.name = "A";
      trace = Memtrace.Synthetic.repeat_walk ~base:0 ~len:24 ~stride:16 ~passes:200 ();
    }
  in
  let noise name base =
    { RR.name = name; trace = Memtrace.Synthetic.uniform_random ~seed:4 ~base ~span:32768 ~count:4800 () }
  in
  let cpi_at ~mapped quantum =
    let system = fresh_system () in
    if mapped then begin
      let m = Machine.System.mapping system in
      ignore (Vm.Mapping.retint_region m ~base:0 ~size:4096 (Vm.Tint.make "A"));
      Vm.Mapping.remap_tint m (Vm.Tint.make "A") (Cache.Bitmask.of_list [ 0; 1 ]);
      Vm.Mapping.remap_tint m Vm.Tint.default (Cache.Bitmask.of_list [ 2; 3 ])
    end;
    let out = RR.run ~system ~quantum [ jobA (); noise "B" 0x100000 ] in
    match RR.find_job out "A" with Some s -> RR.cpi s | None -> nan
  in
  let spread mapped =
    let cpis = List.map (cpi_at ~mapped) [ 4; 64; 1024; 65536 ] in
    List.fold_left max 0. cpis -. List.fold_left min infinity cpis
  in
  check_bool "mapped job less quantum-sensitive" true (spread true < spread false)

(* --- the per-access reference --- *)

(* The reference scheduler: every access goes through the scalar
   [System.access], one at a time, and a job's misses are the shared
   cache's miss delta across each access. [RR.run], which replays each
   slice as one range of a packed trace, must reproduce it exactly. *)
type ref_job = {
  def : RR.job;
  mutable pos : int;
  mutable instructions : int;
  mutable cycles : int;
  mutable memory_accesses : int;
  mutable misses : int;
  mutable slices : int;
}

let reference_run ?(flush_tlb_on_switch = false) ?(switch_cycles = 50) ~system
    ~quantum jobs =
  let arr =
    Array.of_list
      (List.map
         (fun def ->
           {
             def;
             pos = 0;
             instructions = 0;
             cycles = 0;
             memory_accesses = 0;
             misses = 0;
             slices = 0;
           })
         jobs)
  in
  let n = Array.length arr in
  let done_ j = j.pos >= Trace.length j.def.RR.trace in
  let switches = ref 0 and total_cycles = ref 0 in
  let cache_stats = Cache.Sassoc.stats (Machine.System.cache system) in
  let turn = ref 0 and last_job = ref (-1) in
  while not (Array.for_all done_ arr) do
    let idx = !turn mod n in
    let j = arr.(idx) in
    incr turn;
    if not (done_ j) then begin
      j.slices <- j.slices + 1;
      if !last_job >= 0 && !last_job <> idx then begin
        incr switches;
        if flush_tlb_on_switch then Machine.System.flush_tlb system;
        total_cycles := !total_cycles + switch_cycles
      end;
      last_job := idx;
      let slice_insns = ref 0 in
      while (not (done_ j)) && !slice_insns < quantum do
        let a = Trace.get j.def.RR.trace j.pos in
        let misses_before = cache_stats.Cache.Stats.misses in
        let c = Machine.System.access system a in
        j.pos <- j.pos + 1;
        let insns = Access.instructions a in
        slice_insns := !slice_insns + insns;
        j.instructions <- j.instructions + insns;
        j.cycles <- j.cycles + c;
        j.memory_accesses <- j.memory_accesses + 1;
        j.misses <- j.misses + (cache_stats.Cache.Stats.misses - misses_before);
        total_cycles := !total_cycles + c
      done
    end
  done;
  {
    RR.per_job =
      Array.to_list
        (Array.map
           (fun j ->
             {
               RR.job = j.def.RR.name;
               instructions = j.instructions;
               cycles = j.cycles;
               memory_accesses = j.memory_accesses;
               misses = j.misses;
               slices = j.slices;
             })
           arr);
    switches = !switches;
    total_cycles = !total_cycles;
  }

(* 1-4 jobs of up to 80 accesses over 16 KiB (64 pages against a 4-entry
   TLB, 8x the cache), with random kinds, gaps and var tags; a quantum of
   1-64 instructions or one larger than any job; flush-on-switch on or off;
   a standard or a column-mapped cache. *)
let arb_rr_case =
  let open QCheck.Gen in
  let access =
    map4
      (fun addr kind gap var ->
        Access.make
          ~kind:(Memtrace.Packed.kind_of_code kind)
          ?var:(if var < 3 then Some [| "a"; "b"; "c" |].(var) else None)
          ~gap addr)
      (int_bound 16383) (int_bound 2) (int_bound 5) (int_bound 4)
  in
  let job i =
    map
      (fun l -> { RR.name = string_of_int i; trace = Trace.of_list l })
      (list_size (int_bound 80) access)
  in
  let jobs = int_range 1 4 >>= fun k -> flatten_l (List.init k job) in
  let quantum = oneof [ int_range 1 64; return 1_000_000 ] in
  quad jobs quantum bool bool
  |> QCheck.make ~print:(fun (jobs, quantum, flush, mapped) ->
         Printf.sprintf "quantum %d, flush %b, mapped %b, jobs [%s]" quantum
           flush mapped
           (String.concat "; "
              (List.map
                 (fun j ->
                   Format.asprintf "%s: %a" j.RR.name Trace.pp j.RR.trace)
                 jobs)))

let rr_system ~mapped =
  let system =
    Machine.System.create
      (Machine.System.config ~page_size:256 ~tlb_entries:4 cache)
  in
  if mapped then begin
    let m = Machine.System.mapping system in
    let a = Vm.Tint.make "A" in
    ignore (Vm.Mapping.retint_region m ~base:0 ~size:4096 a);
    Vm.Mapping.remap_tint m a (Cache.Bitmask.of_list [ 0; 1 ]);
    Vm.Mapping.remap_tint m Vm.Tint.default (Cache.Bitmask.of_list [ 2; 3 ])
  end;
  system

let prop_matches_reference =
  QCheck.Test.make ~name:"round_robin: range replay = per-access reference"
    ~count:300 arb_rr_case (fun (jobs, quantum, flush_tlb_on_switch, mapped) ->
      let got =
        RR.run ~flush_tlb_on_switch ~system:(rr_system ~mapped) ~quantum jobs
      in
      let want =
        reference_run ~flush_tlb_on_switch ~system:(rr_system ~mapped)
          ~quantum jobs
      in
      got.RR.per_job = want.RR.per_job
      && got.RR.switches = want.RR.switches
      && got.RR.total_cycles = want.RR.total_cycles)

let suites =
  [
    ( "sched.round_robin",
      [
        Alcotest.test_case "all work completes" `Quick test_all_work_completes;
        Alcotest.test_case "instructions counted" `Quick test_instructions_counted;
        Alcotest.test_case "single job no switches" `Quick test_single_job_no_switches;
        Alcotest.test_case "switch counting" `Quick test_switch_counting;
        Alcotest.test_case "switch cost placement" `Quick test_switch_cost_in_total_only;
        Alcotest.test_case "uneven jobs" `Quick test_uneven_jobs_drop_out;
        Alcotest.test_case "validation" `Quick test_quantum_validation;
        Alcotest.test_case "tlb flush cost" `Quick test_tlb_flush_on_switch_costs;
        Alcotest.test_case "quantum-dependent interference" `Quick test_interference_depends_on_quantum;
        Alcotest.test_case "partitioned job flat" `Quick test_partitioned_job_flat_across_quanta;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
