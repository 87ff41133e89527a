(* The paper's Section 4.1 geometry: 2 KB of on-chip memory, four columns,
   16-byte lines. *)
let paper_cache ?(policy = Cache.Policy.Lru) ?(ways = 4) () =
  Cache.Sassoc.config ~line_size:16 ~policy ~size_bytes:2048 ~ways ()

let mpeg_pipeline ?policy ?ways () =
  Pipeline.make ~init:Workloads.Mpeg.init ~cache:(paper_cache ?policy ?ways ())
    Workloads.Mpeg.program

module Fig4_routines = struct
  type point = {
    cache_columns : int;
    scratchpad_columns : int;
    cycles : int;
    misses : int;
    uncached_regions : int;
  }

  type series = {
    routine : string;
    bytes : int;
    points : point list;
  }

  let run ?(meth = Pipeline.Profile_based) () =
    let t = mpeg_pipeline () in
    let k = Pipeline.columns t in
    List.map
      (fun routine ->
        let points =
          List.init (k + 1) (fun cache_columns ->
              let scratchpad_columns = k - cache_columns in
              let stats, part =
                Pipeline.run_partitioned t ~proc:routine ~scratchpad_columns
                  ~meth
              in
              {
                cache_columns;
                scratchpad_columns;
                cycles = stats.Machine.Run_stats.cycles;
                misses = stats.Machine.Run_stats.cache.Cache.Stats.misses;
                uncached_regions =
                  List.length (Layout.Partition.uncached_regions part);
              })
        in
        {
          routine;
          bytes = Workloads.Mpeg.total_bytes ~proc:routine;
          points;
        })
      Workloads.Mpeg.routines

  let print ppf series =
    List.iter
      (fun s ->
        Format.fprintf ppf "@[<v>Figure 4: %s (%d bytes of data)@," s.routine
          s.bytes;
        Format.fprintf ppf "  %-14s %-12s %-10s %-8s %s@," "cache(cols)"
          "scratch(cols)" "cycles" "misses" "uncached";
        List.iter
          (fun p ->
            Format.fprintf ppf "  %-14d %-12d %-10d %-8d %d@," p.cache_columns
              p.scratchpad_columns p.cycles p.misses p.uncached_regions)
          s.points;
        Format.fprintf ppf "@]@.")
      series
end

module Fig4_combined = struct
  type t = {
    static_points : (int * int) list;
    column_cache_cycles : int;
    standard_cache_cycles : int;
  }

  let run ?(meth = Pipeline.Profile_based) () =
    let t = mpeg_pipeline () in
    let k = Pipeline.columns t in
    let procs = Workloads.Mpeg.routines in
    let static_points =
      List.init (k + 1) (fun cache_columns ->
          let stats =
            Pipeline.run_static_app t ~procs ~scratchpad_columns:(k - cache_columns)
              ~meth
          in
          (cache_columns, stats.Machine.Run_stats.cycles))
    in
    let column_cache_cycles =
      (Pipeline.run_dynamic t ~procs ~meth).Machine.Run_stats.cycles
    in
    let standard_cache_cycles =
      List.fold_left
        (fun acc proc ->
          acc + (Pipeline.run_standard t ~proc).Machine.Run_stats.cycles)
        0 procs
    in
    { static_points; column_cache_cycles; standard_cache_cycles }

  let print ppf t =
    Format.fprintf ppf "@[<v>Figure 4(d): whole application@,";
    Format.fprintf ppf "  %-24s %s@," "configuration" "cycles";
    List.iter
      (fun (cache_columns, cycles) ->
        Format.fprintf ppf "  %-24s %d@,"
          (Printf.sprintf "static %d cache cols" cache_columns)
          cycles)
      t.static_points;
    Format.fprintf ppf "  %-24s %d@," "standard 4-way cache"
      t.standard_cache_cycles;
    Format.fprintf ppf "  %-24s %d@," "column cache (dynamic)"
      t.column_cache_cycles;
    Format.fprintf ppf "@]@."
end

module Fig5 = struct
  type series = {
    label : string;
    cache_kb : int;
    mapped : bool;
    points : (int * float) list;
  }

  let default_quanta =
    [ 1; 4; 16; 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ]

  (* Off-chip latency of the multitasking platform; higher than the embedded
     default so that interference shows at the paper's amplitude. *)
  let fig5_timing = { Machine.Timing.default with Machine.Timing.miss_penalty = 50 }

  (* The three gzip jobs, packed once per sweep: every point replays them
     on a fresh machine and never mutates them. *)
  let jobs ~input_len =
    List.map
      (fun (name, seed, base) ->
        {
          Sched.Epoch.name;
          packed = Workloads.Lz77.packed_trace ~seed ~input_len ~base ();
        })
      [ ("A", 1, 0x000000); ("B", 2, 0x100000); ("C", 3, 0x200000) ]

  let job_a_region = (0x000000, 0x100000)

  let run_point ~cache_kb ~mapped ~quantum ~jobs =
    let ways = 8 in
    let cache =
      Cache.Sassoc.config ~line_size:16 ~size_bytes:(cache_kb * 1024) ~ways ()
    in
    let system =
      Machine.System.create
        (Machine.System.config ~timing:fig5_timing ~page_size:1024 cache)
    in
    if mapped then begin
      let mapping = Machine.System.mapping system in
      let job_a = Vm.Tint.make "jobA" in
      let base, size = job_a_region in
      ignore (Vm.Mapping.retint_region mapping ~base ~size job_a);
      (* job A, the critical job, owns six of the eight columns *)
      Vm.Mapping.remap_tint mapping job_a (Cache.Bitmask.range ~lo:0 ~hi:5);
      Vm.Mapping.remap_tint mapping Vm.Tint.default
        (Cache.Bitmask.range ~lo:6 ~hi:7)
    end;
    let outcome = Sched.Round_robin.run_packed ~system ~quantum jobs in
    match Sched.Round_robin.find_job outcome "A" with
    | Some s -> Sched.Round_robin.cpi s
    | None -> assert false

  let run ?(quanta = default_quanta) ?(cache_kbs = [ 16; 128 ])
      ?(input_len = 12288) () =
    let jobs = jobs ~input_len in
    List.concat_map
      (fun cache_kb ->
        List.map
          (fun mapped ->
            {
              label =
                Printf.sprintf "gzip.%dk%s" cache_kb
                  (if mapped then " mapped" else "");
              cache_kb;
              mapped;
              points =
                List.map
                  (fun quantum ->
                    (quantum, run_point ~cache_kb ~mapped ~quantum ~jobs))
                  quanta;
            })
          [ false; true ])
      cache_kbs

  let print ppf series =
    Format.fprintf ppf "@[<v>Figure 5: CPI of job A vs context-switch quantum@,";
    (match series with
    | [] -> ()
    | first :: _ ->
        Format.fprintf ppf "  %-18s" "quantum";
        List.iter (fun (q, _) -> Format.fprintf ppf "%9d" q) first.points;
        Format.fprintf ppf "@,");
    List.iter
      (fun s ->
        Format.fprintf ppf "  %-18s" s.label;
        List.iter (fun (_, cpi) -> Format.fprintf ppf "%9.3f" cpi) s.points;
        Format.fprintf ppf "@,")
      series;
    Format.fprintf ppf "@]@."
end

module Fig3 = struct
  type t = {
    pages : int;
    tinted_pte_writes : int;
    tinted_table_writes : int;
    tinted_tlb_entry_flushes : int;
    direct_pte_writes : int;
    masks_agree : bool;
  }

  let run ?(pages = 20) ?(columns = 20) () =
    let page_size = 256 in
    let region = pages * page_size in
    (* Tint scheme: all pages start with the default tint; give page 0 its
       own column and exclude that column from the rest. *)
    let mapping = Vm.Mapping.create ~page_size ~columns () in
    (* touch the TLB so flushes are observable *)
    for page = 0 to pages - 1 do
      ignore (Vm.Mapping.mask_of mapping (page * page_size))
    done;
    let before = Vm.Mapping.cost mapping in
    let blue = Vm.Tint.make "blue" in
    ignore (Vm.Mapping.retint_region mapping ~base:0 ~size:page_size blue);
    Vm.Mapping.remap_tint mapping blue (Cache.Bitmask.singleton 1);
    Vm.Mapping.remap_tint mapping Vm.Tint.default
      (Cache.Bitmask.complement ~n:columns (Cache.Bitmask.singleton 1));
    let delta =
      Vm.Mapping.cost_delta ~before ~after:(Vm.Mapping.cost mapping)
    in
    (* Direct scheme: bit vectors live in the PTEs. *)
    let direct = Vm.Direct_mapping.create ~page_size ~columns in
    ignore
      (Vm.Direct_mapping.set_mask_region direct ~base:0 ~size:region
         (Cache.Bitmask.full ~n:columns));
    let before_writes = Vm.Direct_mapping.pte_writes direct in
    Vm.Direct_mapping.set_mask direct ~page:0 (Cache.Bitmask.singleton 1);
    ignore
      (Vm.Direct_mapping.set_mask_region direct ~base:page_size
         ~size:(region - page_size)
         (Cache.Bitmask.complement ~n:columns (Cache.Bitmask.singleton 1)));
    let masks_agree =
      List.for_all
        (fun page ->
          let addr = page * page_size in
          Cache.Bitmask.equal
            (Vm.Direct_mapping.mask_of direct addr)
            (Vm.Mapping.mask_of_quiet mapping addr))
        (List.init pages (fun p -> p))
    in
    {
      pages;
      tinted_pte_writes = delta.Vm.Mapping.pte_writes;
      tinted_table_writes = delta.Vm.Mapping.tint_table_writes;
      tinted_tlb_entry_flushes = delta.Vm.Mapping.tlb_entry_flushes;
      direct_pte_writes = Vm.Direct_mapping.pte_writes direct - before_writes;
      masks_agree;
    }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Figure 3: remap one of %d pages to its own column@,\
      \  tints in PTEs:       %d PTE write(s), %d tint-table write(s), %d \
       TLB entry flush(es)@,\
      \  bit vectors in PTEs: %d PTE write(s)@,\
      \  resulting mappings identical: %b@]@." t.pages t.tinted_pte_writes
      t.tinted_table_writes t.tinted_tlb_entry_flushes t.direct_pte_writes
      t.masks_agree
end

module Ablation_policy = struct
  type row = {
    policy : string;
    dynamic_cycles : int;
    best_static_cycles : int;
    standard_cycles : int;
  }

  let run () =
    List.map
      (fun policy ->
        let t = mpeg_pipeline ~policy () in
        let procs = Workloads.Mpeg.routines in
        let meth = Pipeline.Profile_based in
        let dynamic_cycles =
          (Pipeline.run_dynamic t ~procs ~meth).Machine.Run_stats.cycles
        in
        let k = Pipeline.columns t in
        let best_static_cycles =
          List.fold_left
            (fun acc p ->
              min acc
                (Pipeline.run_static_app t ~procs ~scratchpad_columns:p ~meth)
                  .Machine.Run_stats.cycles)
            max_int
            (List.init (k + 1) (fun p -> p))
        in
        let standard_cycles =
          List.fold_left
            (fun acc proc ->
              acc + (Pipeline.run_standard t ~proc).Machine.Run_stats.cycles)
            0 procs
        in
        {
          policy = Cache.Policy.kind_to_string policy;
          dynamic_cycles;
          best_static_cycles;
          standard_cycles;
        })
      Cache.Policy.all_kinds

  let print ppf rows =
    Format.fprintf ppf "@[<v>Ablation: replacement policy (whole MPEG app)@,";
    Format.fprintf ppf
      "  (single-column mapping leaves the policy no choice, so the mapped@,      \   columns are policy-invariant by construction; only the standard@,      \   cache depends on it)@,";
    Format.fprintf ppf "  %-12s %-16s %-14s %s@," "policy" "column(dynamic)"
      "best static" "standard";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-12s %-16d %-14d %d@," r.policy r.dynamic_cycles
          r.best_static_cycles r.standard_cycles)
      rows;
    Format.fprintf ppf "@]@."
end

module Ablation_columns = struct
  type row = {
    columns : int;
    dynamic_cycles : int;
    best_static_cycles : int;
    standard_cycles : int;
  }

  let run ?(columns_list = [ 2; 4; 8 ]) () =
    List.map
      (fun ways ->
        let t = mpeg_pipeline ~ways () in
        let procs = Workloads.Mpeg.routines in
        let meth = Pipeline.Profile_based in
        let dynamic_cycles =
          (Pipeline.run_dynamic t ~procs ~meth).Machine.Run_stats.cycles
        in
        let best_static_cycles =
          List.fold_left
            (fun acc p ->
              min acc
                (Pipeline.run_static_app t ~procs ~scratchpad_columns:p ~meth)
                  .Machine.Run_stats.cycles)
            max_int
            (List.init (ways + 1) (fun p -> p))
        in
        let standard_cycles =
          List.fold_left
            (fun acc proc ->
              acc + (Pipeline.run_standard t ~proc).Machine.Run_stats.cycles)
            0 procs
        in
        { columns = ways; dynamic_cycles; best_static_cycles; standard_cycles })
      columns_list

  let print ppf rows =
    Format.fprintf ppf
      "@[<v>Ablation: column count at fixed 2 KB (whole MPEG app)@,";
    Format.fprintf ppf "  %-8s %-16s %-14s %s@," "columns" "column(dynamic)"
      "best static" "standard";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-8d %-16d %-14d %d@," r.columns r.dynamic_cycles
          r.best_static_cycles r.standard_cycles)
      rows;
    Format.fprintf ppf "@]@."
end

module Ablation_weights = struct
  type row = {
    routine : string;
    profile_cycles : int;
    static_cycles : int;
    standard_cycles : int;
  }

  let run () =
    let t = mpeg_pipeline () in
    List.map
      (fun routine ->
        let best meth =
          snd (Pipeline.best_split t ~proc:routine ~meth)
        in
        {
          routine;
          profile_cycles =
            (best Pipeline.Profile_based).Machine.Run_stats.cycles;
          static_cycles =
            (best Pipeline.Program_analysis).Machine.Run_stats.cycles;
          standard_cycles =
            (Pipeline.run_standard t ~proc:routine).Machine.Run_stats.cycles;
        })
      Workloads.Mpeg.routines

  let print ppf rows =
    Format.fprintf ppf
      "@[<v>Ablation: profile-based vs program-analysis weights@,";
    Format.fprintf ppf "  %-10s %-10s %-10s %s@," "routine" "profile"
      "analysis" "standard";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-10s %-10d %-10d %d@," r.routine
          r.profile_cycles r.static_cycles r.standard_cycles)
      rows;
    Format.fprintf ppf "@]@."
end

module Ablation_page_coloring = struct
  type row = {
    config : string;
    cycles : int;
    misses : int;
  }

  type t = {
    rows : row list;
    recolor_bytes : int;
        (** copying cost of re-coloring between dequant's and idct's
            per-procedure page placements *)
    column_remap_writes : int;
        (** tint-table writes the column cache needs for the same
            per-procedure adaptation *)
  }

  let page_size = 256

  let run () =
    let dm_cache =
      (* the same 2 KB as direct-mapped cache: page coloring's home turf *)
      Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:1 ()
    in
    let t_dm =
      Pipeline.make ~page_size ~init:Workloads.Mpeg.init ~cache:dm_cache
        Workloads.Mpeg.program
    in
    let procs = Workloads.Mpeg.routines in
    let packed = List.map (fun proc -> Pipeline.packed_trace_of t_dm ~proc) procs in
    (* Both direct-mapped arms are plain LRU sweeps over the same traces:
       one stack-distance pass each, the colored one translated through the
       coloring's frame placement (the cache is physically indexed; the TLB
       is virtual and unaffected). The exact machine replay remains as the
       fallback for configurations the closed form cannot express. *)
    let run_configured ?translate configure =
      let stats =
        match
          Sweep.standard ?translate ~cache:dm_cache
            ~timing:Machine.Timing.default ~page_size
            ~tlb_entries:t_dm.Pipeline.tlb_entries packed
        with
        | Some stats -> stats
        | None ->
            let system = Pipeline.fresh_system t_dm in
            configure system;
            List.fold_left
              (fun acc p ->
                Machine.Run_stats.add acc (Machine.System.run_packed system p))
              (Machine.Run_stats.zero ~ways:1)
              packed
      in
      {
        config = "";
        cycles = stats.Machine.Run_stats.cycles;
        misses = stats.Machine.Run_stats.cache.Cache.Stats.misses;
      }
    in
    let vars =
      List.map
        (fun v -> (v.Ir.Ast.name, Ir.Ast.var_size_bytes v))
        Workloads.Mpeg.program.Ir.Ast.vars
    in
    let coloring_for summaries =
      Layout.Page_coloring.assign ~cache:dm_cache ~page_size
        ~address_map:t_dm.Pipeline.address_map ~vars ~summaries
    in
    let naive = run_configured (fun _ -> ()) in
    let colored =
      let coloring = coloring_for (Profile.Lifetime.of_packed packed) in
      run_configured
        ~translate:
          (Vm.Frame_map.translate (Layout.Page_coloring.frame_map coloring))
        (fun system -> Layout.Page_coloring.apply coloring system)
    in
    (* column cache on the same 2 KB, 4 columns *)
    let t_col = mpeg_pipeline () in
    let column =
      let stats = Pipeline.run_dynamic t_col ~procs ~meth:Pipeline.Profile_based in
      {
        config = "";
        cycles = stats.Machine.Run_stats.cycles;
        misses = stats.Machine.Run_stats.cache.Cache.Stats.misses;
      }
    in
    let standard =
      let stats =
        List.fold_left
          (fun acc proc ->
            Machine.Run_stats.add acc (Pipeline.run_standard t_col ~proc))
          (Machine.Run_stats.zero ~ways:4)
          procs
      in
      {
        config = "";
        cycles = stats.Machine.Run_stats.cycles;
        misses = stats.Machine.Run_stats.cache.Cache.Stats.misses;
      }
    in
    (* adaptation cost: per-procedure placements for dequant vs idct *)
    let per_proc proc =
      coloring_for
        (Pipeline.summaries t_dm ~proc ~meth:Pipeline.Profile_based)
    in
    let recolor_bytes =
      Layout.Page_coloring.recolor_cost_bytes ~from_:(per_proc "dequant")
        ~to_:(per_proc "idct")
    in
    let column_remap_writes =
      let _, transitions =
        Pipeline.run_dynamic_detailed t_col ~procs ~meth:Pipeline.Profile_based
      in
      List.fold_left
        (fun acc tr -> acc + tr.Layout.Dynamic.tint_table_writes)
        0 transitions
    in
    {
      rows =
        [
          { naive with config = "direct-mapped, naive layout" };
          { colored with config = "direct-mapped, page-colored" };
          { standard with config = "4-way standard cache" };
          { column with config = "column cache (dynamic)" };
        ];
      recolor_bytes;
      column_remap_writes;
    }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Ablation: page coloring baseline (whole MPEG app, same 2 KB)@,";
    Format.fprintf ppf "  %-30s %-10s %s@," "configuration" "cycles" "misses";
    List.iter
      (fun r -> Format.fprintf ppf "  %-30s %-10d %d@," r.config r.cycles r.misses)
      t.rows;
    Format.fprintf ppf
      "  adaptation dequant->idct: page coloring copies %d bytes; the column        cache writes %d table entries across the whole schedule@,"
      t.recolor_bytes t.column_remap_writes;
    Format.fprintf ppf "@]@."
end

module Ablation_l2 = struct
  type row = {
    config : string;
    cycles : int;
    l1_misses : int;
    l2_hits : int;
  }

  let l2_config = Cache.Sassoc.config ~line_size:16 ~size_bytes:16384 ~ways:4 ()

  let run () =
    let t = mpeg_pipeline () in
    let procs = Workloads.Mpeg.routines in
    let packed = List.map (fun proc -> Pipeline.packed_trace_of t ~proc) procs in
    let system ~l2 =
      let cfg =
        match l2 with
        | false -> Machine.System.config t.Pipeline.cache
        | true -> Machine.System.config ~l2:l2_config t.Pipeline.cache
      in
      Machine.System.create cfg
    in
    (* the standard arm replays each routine twice (with and without L2):
       the no-L2 point is a plain LRU sweep the stack-distance engine reads
       off directly; the L2 point needs the machine *)
    let standard ~l2 =
      let exact () =
        let system = system ~l2 in
        List.fold_left
          (fun acc p ->
            Machine.Run_stats.add acc (Machine.System.run_packed system p))
          (Machine.Run_stats.zero ~ways:4)
          packed
      in
      if l2 then exact ()
      else
        match
          Sweep.standard ~cache:t.Pipeline.cache ~timing:Machine.Timing.default
            ~page_size:t.Pipeline.page_size
            ~tlb_entries:t.Pipeline.tlb_entries packed
        with
        | Some stats -> stats
        | None -> exact ()
    in
    (* the schedule does not depend on the L2: compute it once, replay it
       against both machines *)
    let schedule, traces =
      Pipeline.dynamic_schedule t ~procs ~meth:Pipeline.Profile_based
    in
    let column ~l2 =
      fst (Layout.Dynamic.run ~system:(system ~l2) ~traces schedule)
    in
    let row config (stats : Machine.Run_stats.t) =
      {
        config;
        cycles = stats.Machine.Run_stats.cycles;
        l1_misses = stats.Machine.Run_stats.cache.Cache.Stats.misses;
        l2_hits = stats.Machine.Run_stats.l2_hits;
      }
    in
    [
      row "standard, no L2" (standard ~l2:false);
      row "standard + 16K L2" (standard ~l2:true);
      row "column dynamic, no L2" (column ~l2:false);
      row "column dynamic + 16K L2" (column ~l2:true);
    ]

  let print ppf rows =
    Format.fprintf ppf
      "@[<v>Ablation: L2 presence (whole MPEG app, 2 KB L1)@,";
    Format.fprintf ppf "  %-26s %-10s %-10s %s@," "configuration" "cycles"
      "L1 misses" "L2 hits";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-26s %-10d %-10d %d@," r.config r.cycles
          r.l1_misses r.l2_hits)
      rows;
    Format.fprintf ppf "@]@."
end

module Ablation_prefetch = struct
  type row = {
    config : string;
    cycles : int;
    misses : int;
    prefetches : int;
  }

  (* FIR filter: a hot 128 B coefficient table against two multi-KB streams
     (input, output). The paper's Section 2 observation is that a prefetch
     buffer can live inside the general cache as just another partition:
     marking the stream tints "streaming" prefetches into their own columns
     and cannot evict the coefficients. *)
  let run () =
    let program = Workloads.Kernels.fir ~taps:32 ~samples:2048 in
    let t =
      Pipeline.make ~init:Workloads.Kernels.init ~cache:(paper_cache ()) program
    in
    (* one trace, four configurations: pack once, replay the columns *)
    let packed = Pipeline.packed_trace_of t ~proc:"fir" in
    let streaming_vars = [ "input"; "output" ] in
    let row config (stats : Machine.Run_stats.t) =
      {
        config;
        cycles = stats.Machine.Run_stats.cycles;
        misses = stats.Machine.Run_stats.cache.Cache.Stats.misses;
        prefetches = stats.Machine.Run_stats.prefetches;
      }
    in
    let standard ~prefetch =
      let system = Pipeline.fresh_system t in
      if prefetch then Machine.System.set_streaming system Vm.Tint.default;
      row
        (if prefetch then "standard + prefetch-all"
         else "standard, no prefetch")
        (Machine.System.run_packed system packed)
    in
    let column ~prefetch =
      let part =
        Pipeline.partition t ~proc:"fir" ~scratchpad_columns:0
          ~meth:Pipeline.Profile_based
      in
      let system = Pipeline.fresh_system t in
      Layout.Partition.apply part system;
      if prefetch then
        List.iter
          (fun pl ->
            if List.mem pl.Layout.Partition.region.Layout.Region.var streaming_vars
            then
              Machine.System.set_streaming system
                (Layout.Region.tint pl.Layout.Partition.region))
          part.Layout.Partition.placements;
      row
        (if prefetch then "column + stream prefetch" else "column, no prefetch")
        (Machine.System.run_packed system packed)
    in
    [
      standard ~prefetch:false;
      standard ~prefetch:true;
      column ~prefetch:false;
      column ~prefetch:true;
    ]

  let print ppf rows =
    Format.fprintf ppf
      "@[<v>Ablation: stream prefetch as a cache partition (FIR, 2 KB)@,";
    Format.fprintf ppf "  %-26s %-10s %-8s %s@," "configuration" "cycles"
      "misses" "prefetches";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-26s %-10d %-8d %d@," r.config r.cycles r.misses
          r.prefetches)
      rows;
    Format.fprintf ppf "@]@."
end

module Ablation_tlb = struct
  type series = {
    tlb_entries : int;
    points : (int * float) list;
  }

  let run ?(quanta = [ 16; 256; 4096; 65536; 1048576 ]) ?(sizes = [ 8; 32; 128 ])
      ?(input_len = 8192) () =
    let jobs = Fig5.jobs ~input_len in
    List.map
      (fun tlb_entries ->
        let points =
          List.map
            (fun quantum ->
              let cache =
                Cache.Sassoc.config ~line_size:16 ~size_bytes:(16 * 1024)
                  ~ways:8 ()
              in
              let system =
                Machine.System.create
                  (Machine.System.config ~timing:Fig5.fig5_timing
                     ~page_size:1024 ~tlb_entries cache)
              in
              let outcome =
                Sched.Round_robin.run_packed ~flush_tlb_on_switch:true
                  ~system ~quantum jobs
              in
              match Sched.Round_robin.find_job outcome "A" with
              | Some s -> (quantum, Sched.Round_robin.cpi s)
              | None -> assert false)
            quanta
        in
        { tlb_entries; points })
      sizes

  let print ppf series =
    Format.fprintf ppf
      "@[<v>Ablation: TLB size with flush-on-switch (16k standard cache)@,";
    (match series with
    | [] -> ()
    | first :: _ ->
        Format.fprintf ppf "  %-12s" "quantum";
        List.iter (fun (q, _) -> Format.fprintf ppf "%9d" q) first.points;
        Format.fprintf ppf "@,");
    List.iter
      (fun s ->
        Format.fprintf ppf "  %-12s"
          (Printf.sprintf "tlb=%d" s.tlb_entries);
        List.iter (fun (_, cpi) -> Format.fprintf ppf "%9.3f" cpi) s.points;
        Format.fprintf ppf "@,")
      series;
    Format.fprintf ppf "@]@."
end

module Ablation_grouping = struct
  type row = {
    config : string;
    cycles : int;
    misses : int;
  }

  (* A 768 B array re-walked twenty times, mapped WITHOUT the layout
     algorithm's subarray splitting (one tint for the whole variable):
     confined to one 512 B column it thrashes; given a two-column group
     (Section 2.1's "aggregating columns into partitions") it fits and
     enjoys associativity. The full layout algorithm reaches the same
     result by splitting the array across two single columns — which is
     why grouping adds nothing on the MPEG routines: step 1 of the
     algorithm already absorbs it. *)
  let run () =
    let program = Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20 in
    let t =
      Pipeline.make ~init:Workloads.Kernels.init ~cache:(paper_cache ()) program
    in
    (* the same trace replays under every tint layout: pack once *)
    let packed = Pipeline.packed_trace_of t ~proc:"hot_walk" in
    let coarse_run masks =
      (* whole-variable tints with explicit masks, no splitting *)
      let system = Pipeline.fresh_system t in
      let mapping = Machine.System.mapping system in
      List.iter
        (fun (var, mask) ->
          let base = Layout.Address_map.base_of t.Pipeline.address_map var in
          let size =
            match Ir.Ast.find_var program var with
            | Some v -> Ir.Ast.var_size_bytes v
            | None -> assert false
          in
          ignore
            (Vm.Mapping.retint_region mapping ~base ~size (Vm.Tint.make var));
          Vm.Mapping.remap_tint mapping (Vm.Tint.make var) mask)
        masks;
      let stats = Machine.System.run_packed system packed in
      (stats.Machine.Run_stats.cycles,
       stats.Machine.Run_stats.cache.Cache.Stats.misses)
    in
    let single =
      coarse_run
        [
          ("hot", Cache.Bitmask.singleton 0);
          ("aux1", Cache.Bitmask.singleton 1);
          ("aux2", Cache.Bitmask.singleton 2);
        ]
    in
    let grouped =
      coarse_run
        [
          ("hot", Cache.Bitmask.of_list [ 0; 1 ]);
          ("aux1", Cache.Bitmask.singleton 2);
          ("aux2", Cache.Bitmask.singleton 3);
        ]
    in
    let algorithm =
      let stats, _ =
        Pipeline.run_partitioned t ~proc:"hot_walk" ~scratchpad_columns:0
          ~meth:Pipeline.Profile_based
      in
      (stats.Machine.Run_stats.cycles,
       stats.Machine.Run_stats.cache.Cache.Stats.misses)
    in
    let standard =
      let stats = Pipeline.run_standard t ~proc:"hot_walk" in
      (stats.Machine.Run_stats.cycles,
       stats.Machine.Run_stats.cache.Cache.Stats.misses)
    in
    List.map
      (fun (config, (cycles, misses)) -> { config; cycles; misses })
      [
        ("whole-var, 1 column", single);
        ("whole-var, 2-col group", grouped);
        ("layout algorithm (split)", algorithm);
        ("standard cache", standard);
      ]

  let print ppf rows =
    Format.fprintf ppf
      "@[<v>Ablation: column grouping (Section 2.1) on a 768 B hot walk@,";
    Format.fprintf ppf "  %-26s %-10s %s@," "mapping" "cycles" "misses";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-26s %-10d %d@," r.config r.cycles r.misses)
      rows;
    Format.fprintf ppf "@]@."
end

module Mrc_layout = struct
  type row = {
    config : string;
    cycles : int;
    misses : int;
  }

  type t = {
    rows : row list;
    allocation : (string * int) list;
    predicted_misses : int;
        (** read off the per-variable miss-ratio curves before any replay *)
    measured_misses : int;  (** the machine's count under that allocation *)
    naive_predicted_misses : int;
        (** the curves' price for the one-column-per-variable split *)
    naive_measured_misses : int;
  }

  (* MRC-driven column allocation: one stack-distance pass over the packed
     trace yields every variable's miss-ratio curve, the greedy allocator
     hands columns to whichever curve's next column removes the most
     misses, and the curves PREDICT the resulting miss count exactly —
     compared here against the interference-graph coloring the layout
     algorithm uses, on the grouping ablation's hot-walk workload (where
     group sizing is the whole game). *)
  let run () =
    let program = Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20 in
    let t =
      Pipeline.make ~init:Workloads.Kernels.init ~cache:(paper_cache ()) program
    in
    let packed = Pipeline.packed_trace_of t ~proc:"hot_walk" in
    let cache = t.Pipeline.cache in
    let _global, per_tag =
      Cache.Stack_dist.per_tag_of_packed
        ~line_size:cache.Cache.Sassoc.line_size ~sets:cache.Cache.Sassoc.sets
        ~max_ways:cache.Cache.Sassoc.ways packed
    in
    let curves =
      Array.to_list
        (Array.map
           (fun (name, engine) -> (name, Cache.Stack_dist.miss_curve engine))
           per_tag)
    in
    let allocation =
      Layout.Mrc_alloc.allocate ~columns:(Pipeline.columns t) curves
    in
    let predicted_misses = Layout.Mrc_alloc.predicted_misses curves allocation in
    let run_masks masks =
      (* whole-variable tints with explicit masks, as in the grouping
         ablation *)
      let system = Pipeline.fresh_system t in
      let mapping = Machine.System.mapping system in
      List.iter
        (fun (var, mask) ->
          if not (Cache.Bitmask.is_empty mask) then begin
            let base = Layout.Address_map.base_of t.Pipeline.address_map var in
            let size =
              match Ir.Ast.find_var program var with
              | Some v -> Ir.Ast.var_size_bytes v
              | None -> assert false
            in
            ignore
              (Vm.Mapping.retint_region mapping ~base ~size (Vm.Tint.make var));
            Vm.Mapping.remap_tint mapping (Vm.Tint.make var) mask
          end)
        masks;
      let stats = Machine.System.run_packed system packed in
      ( stats.Machine.Run_stats.cycles,
        stats.Machine.Run_stats.cache.Cache.Stats.misses )
    in
    let mrc_cycles, mrc_misses =
      run_masks (Layout.Mrc_alloc.to_masks allocation)
    in
    (* The curve-blind baseline: one column per variable, the paper's
       footnote restriction. The curves price this allocation too — hot's
       curve at one column already says it will thrash. *)
    let naive = List.map (fun (name, _) -> (name, 1)) curves in
    let naive_predicted_misses =
      Layout.Mrc_alloc.predicted_misses curves naive
    in
    let naive_cycles, naive_misses =
      run_masks (Layout.Mrc_alloc.to_masks naive)
    in
    let coloring =
      let stats, _ =
        Pipeline.run_partitioned t ~proc:"hot_walk" ~scratchpad_columns:0
          ~meth:Pipeline.Profile_based
      in
      ( stats.Machine.Run_stats.cycles,
        stats.Machine.Run_stats.cache.Cache.Stats.misses )
    in
    let standard =
      let stats = Pipeline.run_standard t ~proc:"hot_walk" in
      ( stats.Machine.Run_stats.cycles,
        stats.Machine.Run_stats.cache.Cache.Stats.misses )
    in
    {
      rows =
        List.map
          (fun (config, (cycles, misses)) -> { config; cycles; misses })
          [
            ("MRC greedy allocation", (mrc_cycles, mrc_misses));
            ("equal split, 1 col each", (naive_cycles, naive_misses));
            ("interference coloring", coloring);
            ("standard cache", standard);
          ];
      allocation;
      predicted_misses;
      measured_misses = mrc_misses;
      naive_predicted_misses;
      naive_measured_misses = naive_misses;
    }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>MRC-driven column allocation (768 B hot walk, one \
       stack-distance pass)@,";
    Format.fprintf ppf "  %-26s %-10s %s@," "mapping" "cycles" "misses";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-26s %-10d %d@," r.config r.cycles r.misses)
      t.rows;
    Format.fprintf ppf "  allocation:%a@,"
      (fun ppf ->
        List.iter (fun (v, c) -> Format.fprintf ppf " %s=%d" v c))
      t.allocation;
    Format.fprintf ppf
      "  curve-predicted misses %d, machine-measured %d (%s)@,"
      t.predicted_misses t.measured_misses
      (if t.predicted_misses = t.measured_misses then "exact" else "MISMATCH");
    Format.fprintf ppf
      "  equal-split prediction    %d, machine-measured %d (%s)@,"
      t.naive_predicted_misses t.naive_measured_misses
      (if t.naive_predicted_misses = t.naive_measured_misses then "exact"
       else "MISMATCH");
    Format.fprintf ppf "@]@."
end

module Ablation_optimizer = struct
  type row = {
    routine : string;
    accesses_before : int;
    accesses_after : int;
    standard_before : int;
    standard_after : int;
    column_before : int;
    column_after : int;
  }

  (* The compiler front end the layout pass lives in also runs classical
     scalar optimizations (abl9): hoisting the per-element qscale reload out
     of dequant's loop, folding, dead code. Fewer accesses change both the
     baseline and the layout algorithm's weights. *)
  let run () =
    let meth = Pipeline.Profile_based in
    let before = mpeg_pipeline () in
    let after =
      Pipeline.make ~init:Workloads.Mpeg.init ~cache:(paper_cache ())
        (Ir.Optimize.optimize Workloads.Mpeg.program)
    in
    List.map
      (fun routine ->
        let accesses t =
          Memtrace.Packed.length (Pipeline.packed_trace_of t ~proc:routine)
        in
        let standard t = (Pipeline.run_standard t ~proc:routine).Machine.Run_stats.cycles in
        let column t =
          (snd (Pipeline.best_split t ~proc:routine ~meth)).Machine.Run_stats.cycles
        in
        {
          routine;
          accesses_before = accesses before;
          accesses_after = accesses after;
          standard_before = standard before;
          standard_after = standard after;
          column_before = column before;
          column_after = column after;
        })
      Workloads.Mpeg.routines

  let print ppf rows =
    Format.fprintf ppf
      "@[<v>Ablation: front-end optimizer (fold + DCE + scalar hoisting)@,";
    Format.fprintf ppf "  %-10s %-18s %-20s %s@," "routine" "accesses"
      "standard cycles" "best column cycles";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-10s %6d -> %-8d %8d -> %-9d %8d -> %d@,"
          r.routine r.accesses_before r.accesses_after r.standard_before
          r.standard_after r.column_before r.column_after)
      rows;
    Format.fprintf ppf "@]@."
end

module Generality = struct
  (* Not a figure from the paper: a cross-check that the layout machinery
     generalizes beyond the paper's MPEG benchmark. Same protocol as
     Figure 4(d), applied to a JPEG encoder front end. *)
  type t = {
    routines : (string * int * int * int) list;
        (** routine, bytes, standard cycles, best column cycles *)
    dynamic_cycles : int;
    best_static_cycles : int;
    standard_cycles : int;
  }

  let run () =
    let t =
      Pipeline.make ~init:Workloads.Jpeg.init ~cache:(paper_cache ())
        Workloads.Jpeg.program
    in
    let meth = Pipeline.Profile_based in
    let procs = Workloads.Jpeg.routines in
    let routines =
      List.map
        (fun proc ->
          let standard = (Pipeline.run_standard t ~proc).Machine.Run_stats.cycles in
          let _, best = Pipeline.best_split t ~proc ~meth in
          ( proc,
            Workloads.Jpeg.total_bytes ~proc,
            standard,
            best.Machine.Run_stats.cycles ))
        procs
    in
    let dynamic_cycles =
      (Pipeline.run_dynamic t ~procs ~meth).Machine.Run_stats.cycles
    in
    let best_static_cycles =
      List.fold_left
        (fun acc p ->
          min acc
            (Pipeline.run_static_app t ~procs ~scratchpad_columns:p ~meth)
              .Machine.Run_stats.cycles)
        max_int [ 0; 1; 2; 3; 4 ]
    in
    let standard_cycles =
      List.fold_left
        (fun acc proc ->
          acc + (Pipeline.run_standard t ~proc).Machine.Run_stats.cycles)
        0 procs
    in
    { routines; dynamic_cycles; best_static_cycles; standard_cycles }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Generality check: JPEG encoder front end (2 KB, 4 columns)@,";
    Format.fprintf ppf "  %-16s %-8s %-10s %s@," "routine" "bytes" "standard"
      "best column";
    List.iter
      (fun (proc, bytes, standard, best) ->
        Format.fprintf ppf "  %-16s %-8d %-10d %d@," proc bytes standard best)
      t.routines;
    Format.fprintf ppf "  whole app: standard %d, best static %d, dynamic %d@,"
      t.standard_cycles t.best_static_cycles t.dynamic_cycles;
    Format.fprintf ppf "@]@."
end

module Tail_latency = struct
  type row = {
    tenant : string;
    shared_p50 : int;
    shared_p99 : int;
    shared_p999 : int;
    part_p50 : int;
    part_p99 : int;
    part_p999 : int;
  }

  type t = {
    rows : row list;  (** "all" first, then one row per tenant *)
    allocation : (string * int) list;
    shared_cycles : int;
    partitioned_cycles : int;
    shared_sweep_exact : bool;
    partitioned_sweep_exact : bool;
  }

  (* Three tenants with very different locality share one 4 KB 8-way cache:
     two Zipf-skewed request streams (a hot one that fits in a couple of
     columns and a warmer, wider one) and a sequential scanner whose
     working set exceeds the whole cache. Interleaved request by request,
     the scan's dead lines flood the shared LRU and the Zipf tenants pay
     for it in the tail; giving each tenant the columns its miss-ratio
     curve asks for confines the damage. Both arms replay the identical
     interleaved trace, and each machine replay is cross-checked
     byte-for-byte (aggregates and the full latency distribution) against
     its closed-form stack-distance evaluation. *)
  let tenants =
    [
      ("zipf_hot", Workloads.Gen.Zipf { items = 48; theta = 1.1 }, 0);
      ("zipf_warm", Workloads.Gen.Zipf { items = 96; theta = 0.8 }, 4096);
      ("scan", Workloads.Gen.Scan { items = 512 }, 65536);
    ]

  let requests_per_tenant = 512
  let accesses_per_request = 8

  let run () =
    let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:4096 ~ways:8 () in
    let page_size = 256 and tlb_entries = 32 in
    let timing = Machine.Timing.default in
    let traces =
      List.mapi
        (fun i (name, stream, base) ->
          ( name,
            base,
            Workloads.Gen.emit ~base ~var:name ~accesses_per_request
              ~seed:(1000 + i)
              ~n:(requests_per_tenant * accesses_per_request)
              stream ))
        tenants
    in
    (* Round-robin the tenants' request windows into one packed trace,
       remembering which window belongs to whom. *)
    let b = Memtrace.Packed.Builder.create () in
    let windows = ref [] in
    for r = 0 to requests_per_tenant - 1 do
      List.iter
        (fun (name, _base, tr) ->
          let start = Memtrace.Packed.Builder.length b in
          let s, e = tr.Workloads.Gen.requests.(r) in
          for i = s to e - 1 do
            Memtrace.Packed.Builder.add b
              (Memtrace.Packed.get tr.Workloads.Gen.packed i)
          done;
          windows := (name, start, Memtrace.Packed.Builder.length b) :: !windows)
        traces
    done;
    let packed = Memtrace.Packed.Builder.build b in
    let windows = Array.of_list (List.rev !windows) in
    let all_requests = Array.map (fun (_, s, e) -> (s, e)) windows in
    let tenant_requests name =
      Array.of_list
        (List.filter_map
           (fun (n, s, e) -> if n = name then Some (s, e) else None)
           (Array.to_list windows))
    in
    let run_machine prep =
      let system =
        Machine.System.create
          (Machine.System.config ~timing ~page_size ~tlb_entries cache)
      in
      prep system;
      Machine.System.run_packed_requests system packed ~requests:all_requests
    in
    let agg_equal (a : Machine.Run_stats.t) (b : Machine.Run_stats.t) =
      a.Machine.Run_stats.cycles = b.Machine.Run_stats.cycles
      && a.Machine.Run_stats.instructions = b.Machine.Run_stats.instructions
      && a.Machine.Run_stats.tlb_misses = b.Machine.Run_stats.tlb_misses
      && a.Machine.Run_stats.cache.Cache.Stats.misses
         = b.Machine.Run_stats.cache.Cache.Stats.misses
      && a.Machine.Run_stats.cache.Cache.Stats.writebacks
         = b.Machine.Run_stats.cache.Cache.Stats.writebacks
      && Machine.Latency.equal a.Machine.Run_stats.requests
           b.Machine.Run_stats.requests
    in
    (* Shared arm: everyone competes for the full mask. *)
    let shared_m = run_machine (fun _ -> ()) in
    let shared_sweep ~requests =
      match Sweep.standard ~requests ~cache ~timing ~page_size ~tlb_entries [ packed ] with
      | Some s -> s
      | None -> assert false
    in
    let shared_sweep_exact = agg_equal shared_m (shared_sweep ~requests:all_requests) in
    (* Partitioned arm: each tenant's region tinted and mapped to the
       columns the greedy MRC allocator hands it (everyone keeps at least
       one column — a tenant with none would have nowhere to cache at
       all). *)
    let _global, per_tag =
      Cache.Stack_dist.per_tag_of_packed ~line_size:cache.Cache.Sassoc.line_size
        ~sets:cache.Cache.Sassoc.sets ~max_ways:cache.Cache.Sassoc.ways packed
    in
    let curves =
      Array.to_list
        (Array.map
           (fun (name, engine) -> (name, Cache.Stack_dist.miss_curve engine))
           per_tag)
    in
    let allocation =
      let alloc =
        ref (Layout.Mrc_alloc.allocate ~columns:cache.Cache.Sassoc.ways curves)
      in
      while List.exists (fun (_, c) -> c = 0) !alloc do
        let donor, _ =
          List.fold_left
            (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
            ("", min_int) !alloc
        in
        let starved, _ = List.find (fun (_, c) -> c = 0) !alloc in
        alloc :=
          List.map
            (fun (n, c) ->
              if n = donor then (n, c - 1)
              else if n = starved then (n, 1)
              else (n, c))
            !alloc
      done;
      !alloc
    in
    let masks = Layout.Mrc_alloc.to_masks allocation in
    let regions =
      List.map
        (fun (name, base, tr) ->
          (base, tr.Workloads.Gen.limit - base, List.assoc name masks))
        traces
    in
    let part_m =
      run_machine (fun system ->
          let mapping = Machine.System.mapping system in
          List.iter
            (fun (name, base, tr) ->
              let tint = Vm.Tint.make name in
              ignore
                (Vm.Mapping.retint_region mapping ~base
                   ~size:(tr.Workloads.Gen.limit - base) tint);
              Vm.Mapping.remap_tint mapping tint (List.assoc name masks))
            traces)
    in
    let part_sweep ~requests =
      match
        Sweep.masked ~requests ~cache ~timing ~page_size ~tlb_entries ~regions
          [ packed ]
      with
      | Some s -> s
      | None -> assert false
    in
    let partitioned_sweep_exact = agg_equal part_m (part_sweep ~requests:all_requests) in
    (* Per-tenant tails: the same replays re-windowed to one tenant's
       requests. The windows only select which latencies are recorded —
       they cannot change the simulation — so the (already verified exact)
       closed forms price them directly. *)
    let percentiles (l : Machine.Latency.t) =
      (Machine.Latency.p50 l, Machine.Latency.p99 l, Machine.Latency.p999 l)
    in
    let row tenant (shared : Machine.Run_stats.t) (part : Machine.Run_stats.t) =
      let shared_p50, shared_p99, shared_p999 =
        percentiles shared.Machine.Run_stats.requests
      in
      let part_p50, part_p99, part_p999 =
        percentiles part.Machine.Run_stats.requests
      in
      { tenant; shared_p50; shared_p99; shared_p999; part_p50; part_p99;
        part_p999 }
    in
    let rows =
      row "all" shared_m part_m
      :: List.map
           (fun (name, _, _) ->
             let requests = tenant_requests name in
             row name (shared_sweep ~requests) (part_sweep ~requests))
           traces
    in
    {
      rows;
      allocation;
      shared_cycles = shared_m.Machine.Run_stats.cycles;
      partitioned_cycles = part_m.Machine.Run_stats.cycles;
      shared_sweep_exact;
      partitioned_sweep_exact;
    }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Tail latency under multi-tenant traffic (4 KB, 8 columns, \
       per-request windows)@,";
    Format.fprintf ppf "  %-10s %-22s %s@," "tenant"
      "shared p50/p99/p99.9" "partitioned p50/p99/p99.9";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-10s %6d %6d %6d     %6d %6d %6d@," r.tenant
          r.shared_p50 r.shared_p99 r.shared_p999 r.part_p50 r.part_p99
          r.part_p999)
      t.rows;
    Format.fprintf ppf "  allocation:%a@,"
      (fun ppf -> List.iter (fun (v, c) -> Format.fprintf ppf " %s=%d" v c))
      t.allocation;
    Format.fprintf ppf "  cycles: shared %d, partitioned %d@," t.shared_cycles
      t.partitioned_cycles;
    Format.fprintf ppf "  sweep vs machine: shared %s, partitioned %s@,"
      (if t.shared_sweep_exact then "exact" else "MISMATCH")
      (if t.partitioned_sweep_exact then "exact" else "MISMATCH");
    Format.fprintf ppf "@]@."
end

module Wcet_partition = struct
  type cell = { columns : int; bound : float; observed : int }

  type row = {
    task : string;
    shared : cell;
    equal : cell;
    mrc : cell;
    wcet : cell;
  }

  type t = {
    rows : row list;
    max_bounds : (string * float) list;
    mrc_alloc : (string * int) list;
    wcet_alloc : (string * int) list;
    sound : bool;
  }

  (* Four periodic tasks share a 2 KB, 8-column cache (16 sets of 16-byte
     lines per column). Their worst-case column demands are deliberately
     uneven: [stream] re-walks a two-column array (plus its accumulator's
     line, three lines land in set 0, so its working set only provably
     fits from three columns up); [spiky] walks a one-column hot array
     every period but has a rarely-taken branch over a second array — the
     branch never fires on the profiled run, so its measured miss curve
     flattens after two columns even though its worst case also needs
     three; the two [small] tasks fit inside one column. *)
  let line_size = 16
  let sets = 16
  let total_columns = 8

  let stream_program =
    let open Ir.Build in
    program
      ~vars:[ array "big" ~elems:128 (); scalar "acc" () ]
      [
        proc "main"
          [
            for_ "p" (i 0) (i 7)
              [ for_ "i" (i 0) (i 128) [ set "acc" (s "acc" + ld "big" (r "i")) ] ];
          ];
      ]

  let spiky_program =
    let open Ir.Build in
    program
      ~vars:[ array "hot" ~elems:64 (); array "rare" ~elems:64 (); scalar "acc" () ]
      [
        proc "main"
          [
            for_ "p" (i 0) (i 7)
              [
                for_ "i" (i 0) (i 64) [ set "acc" (s "acc" + ld "hot" (r "i")) ];
                (* Never true on the zero-initialised profiled run, yet the
                   worst case must budget for it. *)
                if_
                  (lt ~prob:0.05 (s "acc") (i 0))
                  [
                    for_ "i" (i 0) (i 64)
                      [ set "acc" (s "acc" + ld "rare" (r "i")) ];
                  ];
              ];
          ];
      ]

  let small_program ~elems ~passes =
    let open Ir.Build in
    program
      ~vars:[ array "buf" ~elems (); scalar "acc" () ]
      [
        proc "main"
          [
            for_ "p" (i 0) (i passes)
              [ for_ "i" (i 0) (i elems) [ set "acc" (s "acc" + ld "buf" (r "i")) ] ];
          ];
      ]

  let tasks =
    [
      ("stream", stream_program);
      ("spiky", spiky_program);
      ("small_a", small_program ~elems:32 ~passes:5);
      ("small_b", small_program ~elems:48 ~passes:4);
    ]

  let analyze_at ~ways p =
    Ir.Cache_analysis.analyze
      { Ir.Cache_analysis.line_size; sets; ways }
      p ~proc:"main"

  (* curve.(c) = the task's proven worst-case miss bound when it owns [c]
     exclusive columns; [infinity] when nothing can be proven. *)
  let bound_curve p =
    Array.init (total_columns + 1) (fun c ->
        match (analyze_at ~ways:c p).Ir.Cache_analysis.wcet_misses with
        | Some b -> float_of_int b
        | None -> infinity)

  let trace_of p =
    Ir.Interp.trace_of p ~proc:"main"
      ~layout:(Ir.Interp.sequential_layout p)

  (* Exclusive columns make a task's share an isolated LRU cache with the
     same set count, so the per-task observed misses come from replaying
     its own trace through exactly that. *)
  let observed_isolated trace ~columns =
    let cache =
      Cache.Sassoc.create
        (Cache.Sassoc.config ~line_size
           ~size_bytes:(line_size * sets * columns)
           ~ways:columns ())
    in
    Cache.Sassoc.access_trace cache trace;
    (Cache.Sassoc.stats cache).Cache.Stats.misses

  let run () =
    let traces = List.map (fun (name, p) -> (name, trace_of p)) tasks in
    let curves = List.map (fun (name, p) -> (name, bound_curve p)) tasks in
    let accesses =
      List.map (fun (name, tr) -> (name, Memtrace.Trace.length tr)) traces
    in
    (* Shared arm: round-robin the tasks' traces (each shifted into its own
       address region) through one full 8-way cache; sharing voids every
       isolation argument, so the only sound per-task bound left is its
       access count. *)
    let region = 65536 in
    let shared_observed =
      let shifted =
        List.mapi
          (fun idx (name, tr) ->
            (name, idx * region, Memtrace.Trace.raw (Memtrace.Trace.shift tr ~offset:(idx * region))))
          traces
      in
      let cache =
        Cache.Sassoc.create
          (Cache.Sassoc.config ~line_size
             ~size_bytes:(line_size * sets * total_columns)
             ~ways:total_columns ())
      in
      let misses = Hashtbl.create 4 in
      let chunk = 32 in
      let pos = ref 0 and live = ref true in
      while !live do
        live := false;
        List.iter
          (fun (name, _base, arr) ->
            let stop = min (Array.length arr) (!pos + chunk) in
            if !pos < Array.length arr then live := true;
            for k = !pos to stop - 1 do
              match Cache.Sassoc.access_record cache arr.(k) with
              | Cache.Sassoc.Hit _ -> ()
              | Cache.Sassoc.Miss _ ->
                  Hashtbl.replace misses name
                    (1 + Option.value (Hashtbl.find_opt misses name) ~default:0)
            done)
          shifted;
        pos := !pos + chunk
      done;
      fun name -> Option.value (Hashtbl.find_opt misses name) ~default:0
    in
    (* MRC arm: measured miss curves from the profiled traces (the rare
       branch never fires), greedily allocated, everyone keeps a column. *)
    let mrc_alloc =
      let miss_curves =
        List.map
          (fun (name, tr) ->
            let sd =
              Cache.Stack_dist.create ~line_size ~sets
                ~max_ways:total_columns ()
            in
            Memtrace.Trace.iter
              (fun a ->
                Cache.Stack_dist.access sd ~kind:a.Memtrace.Access.kind
                  a.Memtrace.Access.addr)
              tr;
            (name, Cache.Stack_dist.miss_curve sd))
          traces
      in
      let alloc =
        ref (Layout.Mrc_alloc.allocate ~columns:total_columns miss_curves)
      in
      (* Same guard as the tail-latency figure: a task handed zero columns
         would have nowhere to cache at all. *)
      while List.exists (fun (_, c) -> c = 0) !alloc do
        let donor, _ =
          List.fold_left
            (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
            ("", min_int) !alloc
        in
        let starved, _ = List.find (fun (_, c) -> c = 0) !alloc in
        alloc :=
          List.map
            (fun (n, c) ->
              if n = donor then (n, c - 1)
              else if n = starved then (n, 1)
              else (n, c))
            !alloc
      done;
      !alloc
    in
    (* WCET arm: minimize the largest statically proven bound. *)
    let wcet_alloc =
      Layout.Wcet_alloc.allocate ~columns:total_columns curves
    in
    let equal_alloc =
      List.map (fun (name, _) -> (name, total_columns / List.length tasks)) tasks
    in
    let cell_of name alloc =
      let columns = List.assoc name alloc in
      let bound = (List.assoc name curves).(columns) in
      let observed = observed_isolated (List.assoc name traces) ~columns in
      { columns; bound; observed }
    in
    let rows =
      List.map
        (fun (name, _) ->
          {
            task = name;
            shared =
              {
                columns = total_columns;
                bound = float_of_int (List.assoc name accesses);
                observed = shared_observed name;
              };
            equal = cell_of name equal_alloc;
            mrc = cell_of name mrc_alloc;
            wcet = cell_of name wcet_alloc;
          })
        tasks
    in
    let max_over get =
      List.fold_left (fun acc r -> Float.max acc (get r).bound) neg_infinity rows
    in
    let max_bounds =
      [
        ("shared", max_over (fun r -> r.shared));
        ("equal", max_over (fun r -> r.equal));
        ("mrc", max_over (fun r -> r.mrc));
        ("wcet", max_over (fun r -> r.wcet));
      ]
    in
    let sound =
      List.for_all
        (fun r ->
          List.for_all
            (fun c -> Float.of_int c.observed <= c.bound)
            [ r.shared; r.equal; r.mrc; r.wcet ])
        rows
    in
    { rows; max_bounds; mrc_alloc; wcet_alloc; sound }

  let pp_bound ppf b =
    if Float.is_finite b then Format.fprintf ppf "%.0f" b
    else Format.pp_print_string ppf "unbounded"

  let print ppf t =
    Format.fprintf ppf
      "@[<v>WCET-aware partitioning (2 KB, 8 columns; static bound vs \
       observed misses)@,";
    Format.fprintf ppf "  %-10s %-20s %-16s %-16s %s@," "task"
      "shared bound/obs" "equal bd/obs" "mrc bd/obs" "wcet bd/obs";
    List.iter
      (fun r ->
        let cell ppf c =
          Format.fprintf ppf "%dc %a/%d" c.columns pp_bound c.bound c.observed
        in
        Format.fprintf ppf "  %-10s %-20s %-16s %-16s %a@," r.task
          (Format.asprintf "%a" cell r.shared)
          (Format.asprintf "%a" cell r.equal)
          (Format.asprintf "%a" cell r.mrc)
          cell r.wcet)
      t.rows;
    Format.fprintf ppf "  max per-task bound:%a@,"
      (fun ppf ->
        List.iter (fun (c, b) -> Format.fprintf ppf " %s=%a" c pp_bound b))
      t.max_bounds;
    Format.fprintf ppf "  bounds sound vs replay: %s@,"
      (if t.sound then "yes" else "NO");
    Format.fprintf ppf "@]@."
end

module Multitask_domains = struct
  type row = {
    job : string;
    accesses : int;
    blocking_cycles : int;
    event_cycles : int;
    mshr_merges : int;
    dram_row_hits : int;
  }

  type t = {
    rows : row list;
    blocking_makespan : int;
    event_makespan : int;
    epochs : int;
    jobs : int;
    identical_across_jobs : bool;
  }

  (* Three LZ77 jobs with disjoint address spaces; each owns an exclusive
     slice of a shared 8-column, 8 KB cache. Because column partitions
     never overlap and the address spaces are disjoint, a private system
     per task with exactly its columns replays the shared machine
     bit-for-bit — which is what lets each task run on its own domain. *)
  let tasks =
    [ ("A", 1, 0x000000, 4); ("B", 2, 0x100000, 2); ("C", 3, 0x200000, 2) ]

  let task_count = List.length tasks

  let job_of (name, seed, base, _cols) =
    {
      Sched.Epoch.name;
      packed = Workloads.Lz77.packed_trace ~seed ~input_len:4096 ~base ();
    }

  let make_system (job : Sched.Epoch.job) =
    let _, _, _, cols =
      List.find (fun (n, _, _, _) -> n = job.Sched.Epoch.name) tasks
    in
    let cache =
      Cache.Sassoc.config ~line_size:16 ~size_bytes:(cols * 1024) ~ways:cols ()
    in
    Machine.System.create (Machine.System.config ~page_size:1024 cache)

  let event_config =
    Machine.Event.config ~mlp:4
      ~dram:(Machine.Dram.config ~banks:4 ~row_bytes:1024 ~queue_depth:8 ())
      ()

  let run ?(jobs = 1) () =
    let job_list = List.map job_of tasks in
    let replay ~jobs ?events () =
      Sched.Epoch.run ~jobs ?events ~make_system job_list
    in
    let blocking = replay ~jobs () in
    let event = replay ~jobs ~events:event_config () in
    (* The scheduler's contract is that the worker-domain count is
       invisible in the outcome; probe it by replaying serially and
       comparing the whole structure (all counters and the timeline). *)
    let identical_across_jobs =
      jobs = 1
      || blocking = replay ~jobs:1 ()
         && event = replay ~jobs:1 ~events:event_config ()
    in
    let rows =
      List.map
        (fun (b : Sched.Epoch.job_stats) ->
          let e =
            match Sched.Epoch.find_job event b.job with
            | Some e -> e
            | None -> assert false
          in
          {
            job = b.job;
            accesses = b.stats.Machine.Run_stats.memory_accesses;
            blocking_cycles = b.stats.Machine.Run_stats.cycles;
            event_cycles = e.stats.Machine.Run_stats.cycles;
            mshr_merges = e.stats.Machine.Run_stats.mshr_merges;
            dram_row_hits = e.stats.Machine.Run_stats.dram_row_hits;
          })
        blocking.Sched.Epoch.per_job
    in
    {
      rows;
      blocking_makespan = blocking.Sched.Epoch.makespan;
      event_makespan = event.Sched.Epoch.makespan;
      epochs = event.Sched.Epoch.epochs;
      jobs;
      identical_across_jobs;
    }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Multitask replay on worker domains (%d LZ77 jobs, exclusive \
       column partitions)@,"
      (List.length t.rows);
    Format.fprintf ppf "  %-6s %-10s %-10s %-10s %-8s %s@," "job" "accesses"
      "blocking" "event" "merges" "row-hits";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-6s %-10d %-10d %-10d %-8d %d@," r.job
          r.accesses r.blocking_cycles r.event_cycles r.mshr_merges
          r.dram_row_hits)
      t.rows;
    Format.fprintf ppf "  gang makespan: blocking %d, event %d (%d epochs)@,"
      t.blocking_makespan t.event_makespan t.epochs;
    Format.fprintf ppf "  outcome identical to serial replay: %s@,"
      (if t.identical_across_jobs then "yes" else "NO");
    Format.fprintf ppf "@]@."
end

module Mrc_scaling = struct
  type row = {
    jobs : int;
    shard_accesses : int list;  (* engine accesses per worker domain *)
    identical : bool;  (* merged curve = serial curve, byte for byte *)
  }

  type t = { rows : row list; total_accesses : int }

  let line_size = 16
  let sets = 64
  let max_ways = 8

  let packed =
    lazy (Workloads.Lz77.packed_trace ~seed:11 ~input_len:8192 ~base:0 ())

  let run ?(jobs_list = [ 1; 2; 4 ]) () =
    let p = Lazy.force packed in
    let serial =
      let e = Cache.Stack_dist.create ~line_size ~sets ~max_ways () in
      Cache.Stack_dist.access_packed e p;
      e
    in
    let serial_curve = Cache.Stack_dist.miss_curve serial in
    let rows =
      List.map
        (fun jobs ->
          let per_shard = Array.make jobs 0 in
          let merged =
            Cache.Stack_dist.of_packed_parallel
              ~on_shard:(fun ~shard ~accesses ->
                per_shard.(shard) <- accesses)
              ~jobs ~line_size ~sets ~max_ways p
          in
          {
            jobs;
            shard_accesses = Array.to_list per_shard;
            identical =
              Cache.Stack_dist.miss_curve merged = serial_curve
              && Cache.Stack_dist.accesses merged
                 = Cache.Stack_dist.accesses serial;
          })
        jobs_list
    in
    { rows; total_accesses = Cache.Stack_dist.accesses serial }

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Set-sharded parallel MRC scaling (LZ77 trace, %d engine \
       accesses, %d sets)@,"
      t.total_accesses sets;
    Format.fprintf ppf "  %-5s %-30s %-10s %s@," "jobs" "per-domain accesses"
      "max/dom" "identical";
    List.iter
      (fun r ->
        let cells =
          String.concat " " (List.map string_of_int r.shard_accesses)
        in
        Format.fprintf ppf "  %-5d %-30s %-10d %s@," r.jobs cells
          (List.fold_left max 0 r.shard_accesses)
          (if r.identical then "yes" else "NO"))
      t.rows;
    Format.fprintf ppf "@]@."
end

module Windowed_mrc = struct
  (* Two tenants swap working-set sizes at a phase boundary. A static
     allocation from whole-trace miss curves must average the phases; the
     incremental windowed controller re-reads its rolling curves and flips
     the split, hitting in both phases. Per-(tenant, phase) misses are read
     off fresh exact per-phase curves — exact for the isolated LRU groups
     {!Layout.Mrc_alloc.to_masks} realizes — so both policies are scored on
     the same footing. *)
  type phase_row = {
    phase : string;
    static_alloc : (string * int) list;
    windowed_alloc : (string * int) list;
    static_misses : int;
    windowed_misses : int;
  }

  type t = {
    rows : phase_row list;
    static_total : int;
    windowed_total : int;
    retired : (string * int) list;
    windowed_wins : bool;
  }

  let line_size = 16
  let sets = 32
  let columns = 8
  let window = 1024
  let epochs = 8
  let phase_accesses = 4096

  let tenants = [ "A"; "B" ]
  let base_of = function "A" -> 0x00000 | _ -> 0x40000

  let phases =
    [
      ("phase1", [ ("A", 7); ("B", 2) ]); ("phase2", [ ("A", 2); ("B", 7) ]);
    ]

  (* The phase's accesses as (tenant, addr), tenants interleaved
     access-by-access like a shared front end would see them. Each tenant
     draws uniformly over [cols] columns' worth of lines (the small working
     set is a prefix of the large one): a stationary independent-reference
     stream, whose miss curve falls smoothly from 1 way up to [cols] — so
     the greedy allocator's marginal gains are informative at every count,
     and a rolling window anywhere in the phase sees the same curve. *)
  let phase_trace idx plan =
    let streams =
      List.map
        (fun (t, cols) ->
          ( t,
            cols,
            Workloads.Prng.create
              ~seed:(0x5eed + (31 * idx) + Char.code t.[0]) ))
        plan
    in
    let acc = ref [] in
    for _ = 1 to phase_accesses do
      List.iter
        (fun (t, cols, rng) ->
          let line = Workloads.Prng.int rng (cols * sets) in
          acc := (t, base_of t + (line * line_size)) :: !acc)
        streams
    done;
    List.rev !acc

  let curve_of accs tenant =
    let e = Cache.Stack_dist.create ~line_size ~sets ~max_ways:columns () in
    List.iter
      (fun (t, a) ->
        if t = tenant then
          Cache.Stack_dist.access e ~kind:Memtrace.Access.Read a)
      accs;
    Cache.Stack_dist.miss_curve e

  let misses_at curve alloc tenant =
    match List.assoc_opt tenant alloc with
    | Some c -> curve.(min c (Array.length curve - 1))
    | None -> assert false

  let run () =
    let traces =
      List.mapi (fun idx (_, plan) -> phase_trace idx plan) phases
    in
    let whole = List.concat traces in
    (* Static: one allocation from the whole-trace per-tenant curves. *)
    let static_alloc =
      Layout.Mrc_alloc.allocate ~columns
        (List.map (fun t -> (t, curve_of whole t)) tenants)
    in
    (* Windowed: feed each phase, then read the controller's split. The
       fold keeps feeding and allocating strictly in phase order. *)
    let inc =
      Layout.Mrc_alloc.Incremental.create ~window ~epochs ~line_size ~sets
        ~max_ways:columns ~columns tenants
    in
    let rows =
      List.rev
        (List.fold_left2
           (fun rows (phase, _) accs ->
             List.iter
               (fun (tenant, addr) ->
                 Layout.Mrc_alloc.Incremental.observe inc ~tenant
                   ~kind:Memtrace.Access.Read addr)
               accs;
             let windowed_alloc =
               Layout.Mrc_alloc.Incremental.allocate_now inc
             in
             let curves = List.map (fun t -> (t, curve_of accs t)) tenants in
             let total alloc =
               List.fold_left
                 (fun sum (t, curve) -> sum + misses_at curve alloc t)
                 0 curves
             in
             {
               phase;
               static_alloc;
               windowed_alloc;
               static_misses = total static_alloc;
               windowed_misses = total windowed_alloc;
             }
             :: rows)
           [] phases traces)
    in
    let static_total =
      List.fold_left (fun a r -> a + r.static_misses) 0 rows
    in
    let windowed_total =
      List.fold_left (fun a r -> a + r.windowed_misses) 0 rows
    in
    {
      rows;
      static_total;
      windowed_total;
      retired =
        List.map
          (fun t ->
            (t, Layout.Mrc_alloc.Incremental.retired_epochs inc ~tenant:t))
          tenants;
      windowed_wins = windowed_total < static_total;
    }

  let pp_alloc ppf alloc =
    List.iter (fun (t, c) -> Format.fprintf ppf "%s:%d " t c) alloc

  let print ppf t =
    Format.fprintf ppf
      "@[<v>Incremental windowed re-allocation vs static whole-trace MRCs \
       (window %d, %d epochs)@,"
      window epochs;
    Format.fprintf ppf "  %-8s %-14s %-14s %-10s %s@," "phase" "static"
      "windowed" "st-miss" "win-miss";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-8s %-14s %-14s %-10d %d@," r.phase
          (Format.asprintf "%a" pp_alloc r.static_alloc)
          (Format.asprintf "%a" pp_alloc r.windowed_alloc)
          r.static_misses r.windowed_misses)
      t.rows;
    Format.fprintf ppf "  totals: static %d, windowed %d — windowed wins: %s@,"
      t.static_total t.windowed_total
      (if t.windowed_wins then "yes" else "NO");
    List.iter
      (fun (tenant, n) ->
        Format.fprintf ppf "  tenant %s retired %d whole epochs@," tenant n)
      t.retired;
    Format.fprintf ppf "@]@."
end

(* Every experiment above is self-contained — each [run] builds its own
   pipelines, systems and caches, and no library module keeps toplevel mutable
   state — so the tasks can execute on separate domains. Each task renders its
   figure to a string with [Format.asprintf]; the serial path renders through
   the exact same strings, so for any [jobs] the bytes written to [ppf] are
   identical by construction (EXPERIMENTS.md relies on this). *)
let all_tasks : (unit -> string) list =
  let render print run () = Format.asprintf "%a" print (run ()) in
  [
    render Fig3.print (fun () -> Fig3.run ());
    render Fig4_routines.print (fun () -> Fig4_routines.run ());
    render Fig4_combined.print (fun () -> Fig4_combined.run ());
    render Fig5.print (fun () -> Fig5.run ());
    render Ablation_policy.print Ablation_policy.run;
    render Ablation_columns.print (fun () -> Ablation_columns.run ());
    render Ablation_weights.print Ablation_weights.run;
    render Ablation_grouping.print Ablation_grouping.run;
    render Mrc_layout.print Mrc_layout.run;
    render Ablation_page_coloring.print Ablation_page_coloring.run;
    render Ablation_l2.print Ablation_l2.run;
    render Ablation_prefetch.print Ablation_prefetch.run;
    render Ablation_tlb.print (fun () -> Ablation_tlb.run ());
    render Ablation_optimizer.print Ablation_optimizer.run;
    render Generality.print Generality.run;
    render Tail_latency.print Tail_latency.run;
    render Wcet_partition.print Wcet_partition.run;
    render Multitask_domains.print (fun () -> Multitask_domains.run ());
    render Mrc_scaling.print (fun () -> Mrc_scaling.run ());
    render Windowed_mrc.print Windowed_mrc.run;
  ]

let run_all ?(jobs = 1) ppf =
  if jobs < 1 then invalid_arg "Experiments.run_all: jobs must be >= 1";
  let tasks = Array.of_list all_tasks in
  let results = Array.make (Array.length tasks) "" in
  if jobs = 1 then Array.iteri (fun i task -> results.(i) <- task ()) tasks
  else begin
    (* Work-stealing over an atomic counter: domains grab the next undone
       task index until none remain. Results land in [results] slots, so
       completion order cannot affect output order. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length tasks then begin
          results.(i) <- tasks.(i) ();
          loop ()
        end
      in
      loop ()
    in
    let spawned = min jobs (Array.length tasks) - 1 in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  Array.iter (Format.pp_print_string ppf) results
