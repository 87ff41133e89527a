(* Entry point: every library contributes its suites. *)
let () =
  Alcotest.run "colcache"
    (Test_memtrace.suites @ Test_cache.suites @ Test_vm.suites
   @ Test_machine.suites @ Test_replay_pins.suites @ Test_profile.suites @ Test_ir.suites @ Test_interp.suites
   @ Test_coloring.suites @ Test_workloads.suites @ Test_sched.suites
   @ Test_layout.suites @ Test_dynamic.suites @ Test_optimize.suites @ Test_parse.suites @ Test_pipeline.suites
   @ Test_differential.suites @ Test_policy_ref.suites @ Test_stack_dist.suites
   @ Test_addr_decomp.suites @ Test_csv_export.suites @ Test_bench_json.suites
   @ Test_workload_gen.suites @ Test_packed_file.suites @ Test_sampled.suites
   @ Test_wcet.suites @ Test_event.suites @ Test_shard.suites @ Test_alloc.suites)
