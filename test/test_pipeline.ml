(* Integration tests: the full pipeline and the paper's experiment shapes.
   These encode the reproduction targets from EXPERIMENTS.md as assertions,
   so `dune runtest` fails if a change breaks a paper-level result. *)

module Pipeline = Colcache.Pipeline
module Experiments = Colcache.Experiments
module Run_stats = Machine.Run_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mpeg =
  lazy
    (Pipeline.make ~init:Workloads.Mpeg.init
       ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
       Workloads.Mpeg.program)

let cycles_at proc scratchpad_columns =
  let t = Lazy.force mpeg in
  let stats, _ =
    Pipeline.run_partitioned t ~proc ~scratchpad_columns
      ~meth:Pipeline.Profile_based
  in
  stats.Run_stats.cycles

(* --- pipeline mechanics --- *)

let test_trace_of_is_deterministic () =
  let t = Lazy.force mpeg in
  let a = Pipeline.trace_of t ~proc:"plus" in
  let b = Pipeline.trace_of t ~proc:"plus" in
  check_bool "deterministic" true (Memtrace.Trace.equal a b)

let test_summaries_cover_all_vars () =
  let t = Lazy.force mpeg in
  List.iter
    (fun meth ->
      let summaries = Pipeline.summaries t ~proc:"dequant" ~meth in
      List.iter
        (fun v -> check_bool (v ^ " summarized") true (List.mem_assoc v summaries))
        [ "coeff"; "dq"; "quant_tbl"; "qscale" ])
    [ Pipeline.Profile_based; Pipeline.Program_analysis ]

let test_run_partitioned_zero_misses_full_scratchpad () =
  let t = Lazy.force mpeg in
  let stats, part =
    Pipeline.run_partitioned t ~proc:"dequant" ~scratchpad_columns:4
      ~meth:Pipeline.Profile_based
  in
  check_int "dequant fully pinned, no misses" 0
    stats.Run_stats.cache.Cache.Stats.misses;
  check_bool "nothing uncached" true (Layout.Partition.uncached_regions part = [])

let test_best_split_finds_minimum () =
  let t = Lazy.force mpeg in
  let p, stats = Pipeline.best_split t ~proc:"plus" ~meth:Pipeline.Profile_based in
  let all = List.init 5 (fun q -> cycles_at "plus" q) in
  check_int "best really minimal" (List.fold_left min max_int all)
    stats.Run_stats.cycles;
  check_bool "best split index valid" true (p >= 0 && p <= 4)

let test_run_standard_matches_full_mask_cache () =
  (* the pipeline's "standard" baseline must equal a hand-rolled run with no
     mapping at all *)
  let t = Lazy.force mpeg in
  let a = (Pipeline.run_standard t ~proc:"plus").Run_stats.cycles in
  let system = Pipeline.fresh_system t in
  let b = (Machine.System.run system (Pipeline.trace_of t ~proc:"plus")).Run_stats.cycles in
  check_int "same cycles" a b

let test_packed_trace_of_matches_boxed () =
  let t = Lazy.force mpeg in
  let packed = Pipeline.packed_trace_of t ~proc:"plus" in
  let boxed = Pipeline.trace_of t ~proc:"plus" in
  check_bool "same accesses" true
    (Memtrace.Trace.equal boxed (Memtrace.Packed.to_trace packed))

let test_run_all_rejects_bad_jobs () =
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d rejected" jobs)
        true
        (try
           Experiments.run_all ~jobs
             (Format.make_formatter (fun _ _ _ -> ()) ignore);
           false
         with Invalid_argument msg ->
           msg = "Experiments.run_all: jobs must be >= 1"))
    [ 0; -1; -3 ]

(* --- paper shape assertions (Figure 4 a-c) --- *)

let test_fig4_dequant_scratchpad_optimal () =
  (* monotone non-increasing cycles as scratchpad share grows *)
  let cycles = List.init 5 (fun p -> cycles_at "dequant" p) in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  check_bool "monotone improvement toward scratchpad" true (monotone cycles);
  check_bool "all-scratchpad strictly beats all-cache" true
    (List.nth cycles 4 < List.nth cycles 0)

let test_fig4_plus_scratchpad_optimal () =
  let all_cache = cycles_at "plus" 0 and all_scratch = cycles_at "plus" 4 in
  check_bool "scratchpad wins for plus" true (all_scratch < all_cache)

let test_fig4_idct_needs_cache () =
  (* idct data exceeds the on-chip memory: the all-scratchpad point must be
     the worst, and some data necessarily goes uncached there *)
  let t = Lazy.force mpeg in
  let _, part =
    Pipeline.run_partitioned t ~proc:"idct" ~scratchpad_columns:4
      ~meth:Pipeline.Profile_based
  in
  check_bool "uncached leftovers at p=4" true
    (Layout.Partition.uncached_regions part <> []);
  let all_scratch = cycles_at "idct" 4 in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "cache point p=%d beats all-scratchpad" p)
        true
        (cycles_at "idct" p < all_scratch))
    [ 0; 1; 2; 3 ]

(* --- Figure 4(d) --- *)

let test_fig4d_dynamic_beats_all_static () =
  let t = Lazy.force mpeg in
  let procs = Workloads.Mpeg.routines in
  let meth = Pipeline.Profile_based in
  let dynamic = (Pipeline.run_dynamic t ~procs ~meth).Run_stats.cycles in
  List.iter
    (fun p ->
      let static =
        (Pipeline.run_static_app t ~procs ~scratchpad_columns:p ~meth)
          .Run_stats.cycles
      in
      check_bool
        (Printf.sprintf "dynamic (%d) beats static p=%d (%d)" dynamic p static)
        true (dynamic < static))
    [ 0; 1; 2; 3; 4 ]

let test_fig4d_dynamic_near_sum_of_optima () =
  let t = Lazy.force mpeg in
  let meth = Pipeline.Profile_based in
  let sum_best =
    List.fold_left
      (fun acc proc ->
        let _, s = Pipeline.best_split ~allow_uncached:false t ~proc ~meth in
        acc + s.Run_stats.cycles)
      0 Workloads.Mpeg.routines
  in
  let dynamic =
    (Pipeline.run_dynamic t ~procs:Workloads.Mpeg.routines ~meth)
      .Run_stats.cycles
  in
  (* transitions cost something, but within 5% of the per-routine optima *)
  check_bool "dynamic within 5% of per-routine optima" true
    (float_of_int dynamic < 1.05 *. float_of_int sum_best)

(* --- Figure 3 --- *)

let test_fig3_costs () =
  let r = Experiments.Fig3.run () in
  check_int "tints: 1 PTE write" 1 r.Experiments.Fig3.tinted_pte_writes;
  check_int "tints: 2 table writes" 2 r.Experiments.Fig3.tinted_table_writes;
  check_int "direct: all PTEs rewritten" r.Experiments.Fig3.pages
    r.Experiments.Fig3.direct_pte_writes;
  check_bool "schemes agree" true r.Experiments.Fig3.masks_agree

(* --- Figure 5 (reduced size to keep the suite fast) --- *)

let test_fig5_mapped_flatter_and_better () =
  let quanta = [ 16; 1024; 65536 ] in
  let series = Experiments.Fig5.run ~quanta ~cache_kbs:[ 16 ] ~input_len:4096 () in
  let find mapped =
    match List.find_opt (fun s -> s.Experiments.Fig5.mapped = mapped) series with
    | Some s -> List.map snd s.Experiments.Fig5.points
    | None -> Alcotest.fail "series missing"
  in
  let std = find false and mapped = find true in
  let spread l = List.fold_left max 0. l -. List.fold_left min infinity l in
  check_bool "mapped flatter" true (spread mapped < spread std);
  (* mapped at the smallest quantum beats standard *)
  check_bool "mapped better at small quantum" true
    (List.nth mapped 0 < List.nth std 0)

(* --- weight methods agree on the big picture --- *)

let test_methods_agree_on_shapes () =
  let t = Lazy.force mpeg in
  List.iter
    (fun meth ->
      let d4 =
        (fst (Pipeline.run_partitioned t ~proc:"dequant" ~scratchpad_columns:4 ~meth
              |> fun (s, p) -> (s, p)))
          .Run_stats.cycles
      in
      let d0 =
        (fst (Pipeline.run_partitioned t ~proc:"dequant" ~scratchpad_columns:0 ~meth))
          .Run_stats.cycles
      in
      check_bool "scratchpad wins for dequant under both methods" true (d4 < d0))
    [ Pipeline.Profile_based; Pipeline.Program_analysis ]

(* --- generality: a second application family --- *)

let test_generality_jpeg () =
  let r = Experiments.Generality.run () in
  check_bool "dynamic beats best static" true
    (r.Experiments.Generality.dynamic_cycles
    < r.Experiments.Generality.best_static_cycles);
  check_bool "dynamic beats standard" true
    (r.Experiments.Generality.dynamic_cycles
    < r.Experiments.Generality.standard_cycles);
  List.iter
    (fun (proc, _, standard, best) ->
      check_bool
        (Printf.sprintf "%s: column layout no worse than standard" proc)
        true (best <= standard))
    r.Experiments.Generality.routines

(* --- CSV export helper --- *)

let test_csv_quoting () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "colcache_csv_test.csv" in
  Colcache.Csv_export.write_rows ~path ~header:[ "a"; "b" ]
    [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string))
    "csv escaping"
    [ "a,b"; "plain,\"with,comma\""; "\"with\"\"quote\",x" ]
    lines

(* --- profiling pins ---
   Digests of what the profile-based and program-analysis methods derive
   for the MPEG routines, recorded when profiling still read boxed traces.
   A digest covers every name, count, lifetime and position in order. *)

let add_summary b (s : Profile.Lifetime.summary) =
  Printf.bprintf b "%h %d %d" s.accesses s.first s.last;
  (match s.positions with
  | None -> Buffer.add_string b " -"
  | Some ps -> Array.iter (fun p -> Printf.bprintf b " %d" p) ps);
  Buffer.add_char b '\n'

let digest_of add items =
  let b = Buffer.create 4096 in
  List.iter (add b) items;
  Digest.to_hex (Digest.string (Buffer.contents b))

let summaries_digest =
  digest_of (fun b (name, s) ->
      Printf.bprintf b "%s " name;
      add_summary b s)

let regions_digest =
  digest_of (fun b (r : Layout.Region.t) ->
      Printf.bprintf b "%s %d %d %d %d " r.var r.part r.parts r.offset r.size;
      add_summary b r.summary)

let test_profiling_pins () =
  let t = Lazy.force mpeg in
  List.iter
    (fun (proc, meth, summaries, regions) ->
      let label =
        match meth with
        | Pipeline.Profile_based -> proc ^ " profile"
        | Pipeline.Program_analysis -> proc ^ " analysis"
      in
      Alcotest.(check string) (label ^ " summaries") summaries
        (summaries_digest (Pipeline.summaries t ~proc ~meth));
      Alcotest.(check string) (label ^ " regions") regions
        (regions_digest (Pipeline.regions t ~proc ~meth)))
    [
      ( "dequant", Pipeline.Profile_based,
        "fc50d40807509e1576104601849ade22", "5441e1a1635a04621a1f6523b5870634" );
      ( "dequant", Pipeline.Program_analysis,
        "caf5178bac68ce6fb03daa9b0b62b508", "8bf4ecbaff86a5176b3308be8a3bcf6b" );
      ( "plus", Pipeline.Profile_based,
        "c56f30954d99330ede71db3a9d5504d0", "27eb8375f802dc2bc49f707728d99b5b" );
      ( "plus", Pipeline.Program_analysis,
        "8dc7c3b01b06f6c5a597ace4ab0c7778", "a6a31f37f08c9a5aa95106cb6645d2af" );
      ( "idct", Pipeline.Profile_based,
        "0f0d5b9eed9478f6ea897d32936394f9", "b09b7464a4e6503d50aa77eb6a2688af" );
      ( "idct", Pipeline.Program_analysis,
        "1565326c746efa96097a46cf9333fb95", "b23232a1fd96d42ced0a7350e7e8633e" );
    ]

(* Copy-in lists are sets: their consumers only ask membership. *)
let test_copy_in_pins () =
  let jpeg =
    Pipeline.make ~init:Workloads.Jpeg.init
      ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
      Workloads.Jpeg.program
  in
  List.iter
    (fun (t, proc, expected) ->
      Alcotest.(check (list string)) (proc ^ " copy-in") expected
        (List.sort compare (Pipeline.copy_in_of t ~proc)))
    [
      (Lazy.force mpeg, "dequant", []);
      (Lazy.force mpeg, "plus", []);
      (Lazy.force mpeg, "idct", [ "blocks" ]);
      (jpeg, "color_convert", []);
      (jpeg, "fdct", [ "ycc" ]);
      (jpeg, "quant_zigzag", []);
    ]

let suites =
  [
    ( "pipeline.mechanics",
      [
        Alcotest.test_case "deterministic traces" `Quick test_trace_of_is_deterministic;
        Alcotest.test_case "summaries cover vars" `Quick test_summaries_cover_all_vars;
        Alcotest.test_case "full scratchpad miss-free" `Quick test_run_partitioned_zero_misses_full_scratchpad;
        Alcotest.test_case "best_split minimal" `Quick test_best_split_finds_minimum;
        Alcotest.test_case "standard = unmapped" `Quick test_run_standard_matches_full_mask_cache;
        Alcotest.test_case "packed trace = boxed trace" `Quick
          test_packed_trace_of_matches_boxed;
        Alcotest.test_case "run_all rejects bad jobs" `Quick
          test_run_all_rejects_bad_jobs;
      ] );
    ( "pipeline.profile_pins",
      [
        Alcotest.test_case "summaries and regions" `Quick test_profiling_pins;
        Alcotest.test_case "copy-in sets" `Quick test_copy_in_pins;
      ] );
    ( "pipeline.paper_shapes",
      [
        Alcotest.test_case "fig4a dequant" `Quick test_fig4_dequant_scratchpad_optimal;
        Alcotest.test_case "fig4b plus" `Quick test_fig4_plus_scratchpad_optimal;
        Alcotest.test_case "fig4c idct" `Quick test_fig4_idct_needs_cache;
        Alcotest.test_case "fig4d dynamic wins" `Quick test_fig4d_dynamic_beats_all_static;
        Alcotest.test_case "fig4d near optima" `Quick test_fig4d_dynamic_near_sum_of_optima;
        Alcotest.test_case "fig3 costs" `Quick test_fig3_costs;
        Alcotest.test_case "fig5 shape" `Slow test_fig5_mapped_flatter_and_better;
        Alcotest.test_case "methods agree" `Quick test_methods_agree_on_shapes;
        Alcotest.test_case "generality: jpeg" `Quick test_generality_jpeg;
        Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
      ] );
  ]
