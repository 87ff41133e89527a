(* colcache: command-line driver for the column-caching reproduction.

   Subcommands map one-to-one onto the paper's experiments plus a few
   inspection tools:

     colcache fig3                Figure 3 remap-cost comparison
     colcache fig4                Figure 4(a-c) per-routine partition sweeps
     colcache fig4d               Figure 4(d) static vs dynamic partitioning
     colcache fig5                Figure 5 multitasking CPI sweep
     colcache ablations           the DESIGN.md ablations
     colcache all                 everything above
     colcache dynamic             run the per-routine schedule, show remap costs
     colcache layout  <routine>   show the computed placement for a routine
     colcache simulate <routine>  run one routine under a chosen partition
     colcache trace dump <routine>    dump the head of a routine's memory trace
     colcache trace pack|info|synth   packed binary trace tooling
     colcache multitask           epoch-synchronized parallel multitask replay
     colcache mrc     <file>      miss-ratio curve of a trace, exact or sampled
     colcache check               differential soak: simulators vs naive oracle
     colcache gen                 emit a traffic-shaped workload trace
     colcache validate <file>     parse, validate and lint an IF program file
     colcache wcet    <file>      static worst-case miss/cycle bounds, WCET-aware
                                  column allocation across procedures *)

open Cmdliner

let ppf = Format.std_formatter

let meth_conv =
  let parse = function
    | "profile" -> Ok Colcache.Pipeline.Profile_based
    | "analysis" -> Ok Colcache.Pipeline.Program_analysis
    | s -> Error (`Msg (Printf.sprintf "unknown method %S (profile|analysis)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Colcache.Pipeline.Profile_based -> "profile"
      | Colcache.Pipeline.Program_analysis -> "analysis")
  in
  Arg.conv (parse, print)

let meth_arg =
  Arg.(
    value
    & opt meth_conv Colcache.Pipeline.Profile_based
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Weight method: $(b,profile) (run and measure) or $(b,analysis) \
              (estimate from the IF).")

let routine_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ROUTINE"
        ~doc:"Routine name: dequant/plus/idct (mpeg) or               color_convert/fdct/quant_zigzag (jpeg).")

let app_arg =
  Arg.(
    value
    & opt (enum [ ("mpeg", `Mpeg); ("jpeg", `Jpeg) ]) `Mpeg
    & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application: $(b,mpeg) or $(b,jpeg).")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the front-end optimizer (fold, DCE, hoisting) first.")

let scratch_arg =
  Arg.(
    value
    & opt int 2
    & info [ "s"; "scratchpad-columns" ] ~docv:"N"
        ~doc:"Columns reserved as scratchpad (0-4).")

let mpeg_pipeline () =
  Colcache.Pipeline.make ~init:Workloads.Mpeg.init
    ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
    Workloads.Mpeg.program

(* Pipeline + routine validation for the app chosen on the command line. *)
let app_pipeline app ~optimize ~routine =
  let program, init, routines =
    match app with
    | `Mpeg -> (Workloads.Mpeg.program, Workloads.Mpeg.init, Workloads.Mpeg.routines)
    | `Jpeg -> (Workloads.Jpeg.program, Workloads.Jpeg.init, Workloads.Jpeg.routines)
  in
  if not (List.mem routine routines) then begin
    Format.eprintf "colcache: unknown routine %S; expected one of: %s@."
      routine
      (String.concat ", " routines);
    exit 124
  end;
  let program = if optimize then Ir.Optimize.optimize program else program in
  Colcache.Pipeline.make ~init
    ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
    program

let fig3_cmd =
  let run () = Colcache.Experiments.Fig3.print ppf (Colcache.Experiments.Fig3.run ()) in
  Cmd.v (Cmd.info "fig3" ~doc:"Tints vs raw bit vectors remap cost (Figure 3).")
    Term.(const run $ const ())

let fig4_cmd =
  let run meth =
    Colcache.Experiments.Fig4_routines.print ppf
      (Colcache.Experiments.Fig4_routines.run ~meth ())
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Per-routine scratchpad/cache sweeps (Figure 4 a-c).")
    Term.(const run $ meth_arg)

let fig4d_cmd =
  let run meth =
    Colcache.Experiments.Fig4_combined.print ppf
      (Colcache.Experiments.Fig4_combined.run ~meth ())
  in
  Cmd.v
    (Cmd.info "fig4d" ~doc:"Whole application, static vs dynamic (Figure 4d).")
    Term.(const run $ meth_arg)

let fig5_cmd =
  let input_len =
    Arg.(
      value & opt int 12288
      & info [ "input-len" ] ~docv:"BYTES" ~doc:"Input size per gzip job.")
  in
  let run input_len =
    Colcache.Experiments.Fig5.print ppf
      (Colcache.Experiments.Fig5.run ~input_len ())
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Multitasking CPI vs time quantum (Figure 5).")
    Term.(const run $ input_len)

let ablations_cmd =
  let run () =
    Colcache.Experiments.Ablation_policy.print ppf
      (Colcache.Experiments.Ablation_policy.run ());
    Colcache.Experiments.Ablation_columns.print ppf
      (Colcache.Experiments.Ablation_columns.run ());
    Colcache.Experiments.Ablation_weights.print ppf
      (Colcache.Experiments.Ablation_weights.run ());
    Colcache.Experiments.Ablation_grouping.print ppf
      (Colcache.Experiments.Ablation_grouping.run ());
    Colcache.Experiments.Mrc_layout.print ppf
      (Colcache.Experiments.Mrc_layout.run ());
    Colcache.Experiments.Ablation_page_coloring.print ppf
      (Colcache.Experiments.Ablation_page_coloring.run ());
    Colcache.Experiments.Ablation_l2.print ppf
      (Colcache.Experiments.Ablation_l2.run ());
    Colcache.Experiments.Ablation_prefetch.print ppf
      (Colcache.Experiments.Ablation_prefetch.run ());
    Colcache.Experiments.Ablation_tlb.print ppf
      (Colcache.Experiments.Ablation_tlb.run ());
    Colcache.Experiments.Ablation_optimizer.print ppf
      (Colcache.Experiments.Ablation_optimizer.run ())
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Design ablations from DESIGN.md.")
    Term.(const run $ const ())

let export_cmd =
  let dir =
    Arg.(
      value & opt string "results"
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory for CSV files.")
  in
  let run dir =
    Colcache.Csv_export.write_all ~dir;
    Format.fprintf ppf "wrote CSV series to %s/@." dir
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run every experiment and write its data series as CSV files.")
    Term.(const run $ dir)

let all_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the experiments on N domains. The output is byte-identical \
             whatever N is; only the wall-clock time changes.")
  in
  let run jobs =
    if jobs <= 0 then
      `Error
        ( false,
          Printf.sprintf "--jobs must be a positive domain count, got %d" jobs
        )
    else `Ok (Colcache.Experiments.run_all ~jobs ppf)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(ret (const run $ jobs))

let dynamic_cmd =
  let run meth =
    let t = mpeg_pipeline () in
    let stats, transitions =
      Colcache.Pipeline.run_dynamic_detailed t ~procs:Workloads.Mpeg.routines
        ~meth
    in
    List.iter
      (fun tr -> Format.fprintf ppf "%a@." Layout.Dynamic.pp_transition tr)
      transitions;
    Format.fprintf ppf "@.%a@." Machine.Run_stats.pp stats
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:
         "Run the dynamically repartitioned schedule (Section 3.2) and show           what each phase boundary cost.")
    Term.(const run $ meth_arg)

let layout_cmd =
  let run app optimize routine scratch meth =
    let t = app_pipeline app ~optimize ~routine in
    let part =
      Colcache.Pipeline.partition t ~proc:routine ~scratchpad_columns:scratch
        ~meth
    in
    Format.fprintf ppf "%a@." Layout.Partition.pp part
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:"Show the data layout the algorithm computes for a routine.")
    Term.(const run $ app_arg $ optimize_arg $ routine_arg $ scratch_arg $ meth_arg)

let simulate_cmd =
  let run app optimize routine scratch meth =
    let t = app_pipeline app ~optimize ~routine in
    let stats, part =
      Colcache.Pipeline.run_partitioned t ~proc:routine
        ~scratchpad_columns:scratch ~meth
    in
    Format.fprintf ppf "%a@.@.%a@." Layout.Partition.pp part
      Machine.Run_stats.pp stats
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Lay a routine out and replay it on the machine model.")
    Term.(const run $ app_arg $ optimize_arg $ routine_arg $ scratch_arg $ meth_arg)

(* Shared by trace synth and gen: the distribution-shape flags. *)
let dist_arg =
  Arg.(
    value
    & opt (enum [ ("zipf", `Zipf); ("uniform", `Uniform); ("scan", `Scan);
                  ("hotset", `Hotset) ])
        `Zipf
    & info [ "dist" ] ~docv:"DIST"
        ~doc:
          "Distribution: $(b,zipf), $(b,uniform), $(b,scan) or $(b,hotset) \
           (drifting hot window).")

let stream_of_dist dist ~items ~theta ~n =
  match dist with
  | `Zipf -> Workloads.Gen.Zipf { items; theta }
  | `Uniform -> Workloads.Gen.Uniform { items }
  | `Scan -> Workloads.Gen.Scan { items }
  | `Hotset ->
      Workloads.Gen.Hot_set
        {
          items;
          hot_items = max 1 (items / 8);
          hot_prob = 0.9;
          drift_every = max 1 (n / 8);
        }

let trace_dump_term =
  let count =
    Arg.(
      value & opt int 32
      & info [ "n" ] ~docv:"COUNT" ~doc:"Number of accesses to print.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also save the whole trace to FILE (colcache-trace v1 format).")
  in
  let run app optimize routine count out =
    let t = app_pipeline app ~optimize ~routine in
    let trace = Colcache.Pipeline.trace_of t ~proc:routine in
    Format.fprintf ppf "%d accesses, %d instructions; first %d:@."
      (Memtrace.Trace.length trace)
      (Memtrace.Trace.instructions trace)
      count;
    let n = min count (Memtrace.Trace.length trace) in
    for i = 0 to n - 1 do
      Format.fprintf ppf "%a@." Memtrace.Access.pp (Memtrace.Trace.get trace i)
    done;
    match out with
    | None -> ()
    | Some path ->
        Memtrace.Trace_file.save ~path trace;
        Format.fprintf ppf "saved to %s@." path
  in
  Term.(const run $ app_arg $ optimize_arg $ routine_arg $ count $ out)

let trace_dump_cmd =
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Dump (and optionally save) a routine's memory trace.")
    trace_dump_term

let trace_pack_cmd =
  let input =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Text trace (colcache-trace v1).")
  in
  let output =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Packed binary trace to write.")
  in
  let run input output =
    if Memtrace.Packed.is_packed_file input then begin
      Format.eprintf "%s: already a packed binary trace@." input;
      exit 1
    end;
    let packed = Memtrace.Packed.of_trace (Memtrace.Trace_file.load ~path:input) in
    Memtrace.Packed.write_file output packed;
    Format.fprintf ppf "packed %d accesses into %s (%d bytes)@."
      (Memtrace.Packed.length packed)
      output
      (Unix.stat output).Unix.st_size
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Convert a text trace to the packed binary format, whose columns \
          mmap directly so replays run in bounded memory however large the \
          trace.")
    Term.(const run $ input $ output)

let trace_info_cmd =
  let input =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file (text or packed binary).")
  in
  let run input =
    let packed_format = Memtrace.Packed.is_packed_file input in
    let packed = Memtrace.Trace_file.load_packed ~path:input in
    let n = Memtrace.Packed.length packed in
    let addrs = Memtrace.Packed.raw_addrs packed in
    let kinds = Memtrace.Packed.raw_kinds packed in
    let lo = ref max_int and hi = ref min_int and writes = ref 0 in
    for i = 0 to n - 1 do
      let a = Bigarray.Array1.unsafe_get addrs i in
      if a < !lo then lo := a;
      if a > !hi then hi := a;
      if Bigarray.Array1.unsafe_get kinds i = '\001' then incr writes
    done;
    Format.fprintf ppf "format:       %s@."
      (if packed_format then "packed binary (mmapped)" else "text v1");
    Format.fprintf ppf "file bytes:   %d@." (Unix.stat input).Unix.st_size;
    Format.fprintf ppf "accesses:     %d@." n;
    Format.fprintf ppf "instructions: %d@." (Memtrace.Packed.instructions packed);
    Format.fprintf ppf "writes:       %d@." !writes;
    Format.fprintf ppf "variables:    %d@."
      (Array.length (Memtrace.Packed.var_table packed));
    if n > 0 then Format.fprintf ppf "addresses:    [%d, %d]@." !lo !hi
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Show a trace file's header and aggregate statistics. Packed files \
          are mmapped, so this is cheap even for traces larger than RAM.")
    Term.(const run $ input)

let trace_synth_cmd =
  let n =
    Arg.(
      value & opt int 1_000_000
      & info [ "n" ] ~docv:"N" ~doc:"Accesses to synthesize.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"PRNG seed; equal seeds give byte-identical files.")
  in
  let items =
    Arg.(
      value & opt int 65536
      & info [ "items" ] ~docv:"I" ~doc:"Rank-space size.")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew (zipf only).")
  in
  let out =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Packed binary trace to write.")
  in
  let run dist n seed items theta out =
    if n < 0 then begin
      Format.eprintf "trace synth: -n must be >= 0@.";
      exit 1
    end;
    let stream = stream_of_dist dist ~items ~theta ~n in
    (* Streamed through Packed.Writer: the trace never materializes in
       memory, so N is bounded by disk, not RAM. *)
    let w = Memtrace.Packed.Writer.create out ~length:n in
    Workloads.Gen.iter_accesses ~seed ~n stream (fun ~kind ~gap addr ->
        Memtrace.Packed.Writer.emit w ~kind ~gap addr);
    Memtrace.Packed.Writer.close w;
    Format.fprintf ppf "synthesized %d accesses into %s (%d bytes)@." n out
      (Unix.stat out).Unix.st_size
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Synthesize a traffic-shaped trace straight to a packed binary \
          file, streaming: memory use is constant however large N is.")
    Term.(const run $ dist_arg $ n $ seed $ items $ theta $ out)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Trace tooling: dump a routine's trace (default), pack text traces \
          into the mmappable binary format, inspect trace files, or \
          synthesize huge traces out of core.")
    [ trace_dump_cmd; trace_pack_cmd; trace_info_cmd; trace_synth_cmd ]

let mrc_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Trace file (text colcache-trace v1 or packed binary).")
  in
  let line_size =
    Arg.(
      value & opt int 16
      & info [ "line-size" ] ~docv:"BYTES" ~doc:"Cache line size.")
  in
  let sets =
    Arg.(
      value & opt int 32
      & info [ "sets" ] ~docv:"N" ~doc:"Cache sets (power of two).")
  in
  let ways =
    Arg.(
      value & opt int 8
      & info [ "ways" ] ~docv:"W" ~doc:"Largest associativity to report.")
  in
  let sample_rate =
    Arg.(
      value & opt (some float) None
      & info [ "sample-rate" ] ~docv:"R"
          ~doc:
            "SHARDS-style set sampling at rate R in (0, 1]: only sets \
             hashing under R are simulated and the curve is scaled back up. \
             Without this flag the curve is exact.")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ] ~docv:"LINES"
          ~doc:
            "With $(b,--sample-rate): cap on distinct sampled lines; the \
             largest-hash selected sets are evicted (lowering the effective \
             rate) to stay under it.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"Set-hash seed (sampled mode).")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "With $(b,--sample-rate): also run the exact engine and report \
             the observed per-associativity and mean absolute error.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard the stack-distance pass over N worker domains (one set \
             shard each). The curve is byte-identical whatever N is; only \
             the wall-clock time changes.")
  in
  let window =
    Arg.(
      value & opt (some int) None
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Report the rolling miss-ratio curve over (approximately) the \
             last W accesses instead of the whole trace, via the \
             epoch-ring windowed engine.")
  in
  let epochs =
    Arg.(
      value & opt int 8
      & info [ "epochs" ] ~docv:"E"
          ~doc:
            "With $(b,--window): ring granularity; the window retires in \
             W/E-access epochs. W must be a multiple of E.")
  in
  let run file line_size sets ways sample_rate budget seed compare jobs
      window epochs =
    let packed = Memtrace.Trace_file.load_packed ~path:file in
    let exact_mrc =
      if sample_rate = None || compare then begin
        let engine =
          Cache.Stack_dist.of_packed_parallel ~jobs ~line_size ~sets
            ~max_ways:ways packed
        in
        Some (Cache.Stack_dist.mrc engine)
      end
      else None
    in
    match window with
    | Some w ->
        let win =
          Cache.Stack_dist.Windowed.create ~window:w ~epochs ~line_size ~sets
            ~max_ways:ways ()
        in
        Cache.Stack_dist.Windowed.observe_packed win packed;
        let mrc = Cache.Stack_dist.Windowed.mrc_now win in
        Format.fprintf ppf
          "%d accesses, rolling miss-ratio curve over the last %d (window \
           %d, %d epochs of %d, %d retired):@."
          (Memtrace.Packed.length packed)
          (Cache.Stack_dist.Windowed.accesses_in_window win)
          w epochs
          (Cache.Stack_dist.Windowed.epoch_length win)
          (Cache.Stack_dist.Windowed.retired_epochs win);
        for a = 1 to ways do
          Format.fprintf ppf "  %2d way%s  %.6f@." a
            (if a = 1 then " " else "s")
            mrc.(a)
        done
    | None -> (
    match sample_rate with
    | None ->
        let mrc = Option.get exact_mrc in
        Format.fprintf ppf "%d accesses, exact miss-ratio curve:@."
          (Memtrace.Packed.length packed);
        for a = 1 to ways do
          Format.fprintf ppf "  %2d way%s  %.6f@." a
            (if a = 1 then " " else "s")
            mrc.(a)
        done
    | Some rate ->
        let sampled =
          if jobs = 1 then begin
            let e =
              Cache.Stack_dist.Sampled.create ~seed ?budget ~rate ~line_size
                ~sets ~max_ways:ways ()
            in
            Cache.Stack_dist.Sampled.access_packed e packed;
            e
          end
          else
            Cache.Stack_dist.Sampled.of_packed_parallel ~seed ~jobs ~rate
              ~line_size ~sets ~max_ways:ways packed
        in
        let est = Cache.Stack_dist.Sampled.mrc_est sampled in
        Format.fprintf ppf
          "%d accesses, sampled miss-ratio curve (rate %.4f requested, %.4f \
           effective: %d/%d sets, %d accesses sampled%s):@."
          (Memtrace.Packed.length packed)
          rate
          (Cache.Stack_dist.Sampled.effective_rate sampled)
          (Cache.Stack_dist.Sampled.selected_sets sampled)
          sets
          (Cache.Stack_dist.Sampled.sampled_accesses sampled)
          (let ev = Cache.Stack_dist.Sampled.set_evictions sampled in
           if ev = 0 then "" else Printf.sprintf ", %d budget evictions" ev);
        (match exact_mrc with
        | None ->
            for a = 1 to ways do
              Format.fprintf ppf "  %2d way%s  %.6f@." a
                (if a = 1 then " " else "s")
                est.(a)
            done
        | Some mrc ->
            let sum = ref 0. in
            for a = 1 to ways do
              let e = abs_float (est.(a) -. mrc.(a)) in
              sum := !sum +. e;
              Format.fprintf ppf
                "  %2d way%s  est %.6f  exact %.6f  |err| %.6f@." a
                (if a = 1 then " " else "s")
                est.(a) mrc.(a) e
            done;
            Format.fprintf ppf "mean absolute error: %.6f@."
              (!sum /. float_of_int ways)))
  in
  let run_checked file line_size sets ways sample_rate budget seed compare
      jobs window epochs =
    if jobs <= 0 then
      `Error
        ( false,
          Printf.sprintf "--jobs must be a positive domain count, got %d" jobs
        )
    else if jobs > sets then
      `Error
        ( false,
          Printf.sprintf "--jobs exceeds the set count: %d shards for %d sets"
            jobs sets )
    else if jobs > 1 && budget <> None then
      `Error
        ( false,
          "--jobs cannot shard a --budget run: fixed-budget set eviction is \
           order-dependent" )
    else if jobs > 1 && window <> None then
      `Error
        ( false,
          "--jobs cannot shard a --window run: the rolling window is \
           inherently sequential" )
    else
      match window with
      | Some _ when sample_rate <> None ->
          `Error
            ( false,
              "--window is a rolling exact curve; it cannot combine with \
               --sample-rate" )
      | Some w when w <= 0 ->
          `Error
            ( false,
              Printf.sprintf "--window must be a positive access count, got %d"
                w )
      | Some _ when epochs <= 0 ->
          `Error
            ( false,
              Printf.sprintf "--epochs must be a positive epoch count, got %d"
                epochs )
      | Some w when w mod epochs <> 0 ->
          `Error
            ( false,
              Printf.sprintf
                "--window must be a multiple of --epochs: window %d, epochs \
                 %d"
                w epochs )
      | Some _ | None ->
          `Ok
            (run file line_size sets ways sample_rate budget seed compare
               jobs window epochs)
  in
  Cmd.v
    (Cmd.info "mrc"
       ~doc:
         "Miss-ratio curve of a trace file over associativities 1..W, exact \
          (single-pass stack distances, optionally sharded over worker \
          domains with $(b,--jobs)) or SHARDS-sampled ($(b,--sample-rate)), \
          or rolling over the last W accesses ($(b,--window)). Packed \
          binary traces are mmapped, so curves of larger-than-RAM traces \
          compute in bounded memory.")
    Term.(
      ret
        (const run_checked $ file $ line_size $ sets $ ways $ sample_rate
       $ budget $ seed $ compare $ jobs $ window $ epochs))

let validate_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"IF program source (see Ir.Parse).")
  in
  let run file =
    match Ir.Parse.program_of_file file with
    | p ->
        let diags = Ir.Lint.check p in
        List.iter
          (fun d -> Format.eprintf "%s: %a@." file Ir.Lint.pp_diagnostic d)
          diags;
        if Ir.Lint.errors diags <> [] then exit 1;
        Format.fprintf ppf "%s: OK (%d variables, %d procedures%s)@." file
          (List.length p.Ir.Ast.vars)
          (List.length p.Ir.Ast.procs)
          (match List.length diags with
          | 0 -> ""
          | n -> Printf.sprintf ", %d lint warning%s" n (if n = 1 then "" else "s"))
    | exception Ir.Parse.Parse_error { line; message } ->
        Format.eprintf "%s:%d: %s@." file line message;
        exit 1
    | exception Ir.Ast.Invalid_program message ->
        Format.eprintf "%s: invalid program: %s@." file message;
        exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Parse and validate an IF program file, then lint it \
          (out-of-bounds constant indices, probabilities outside [0,1], \
          unused variables, zero-weight While bodies). Lint errors fail \
          the exit status; warnings are reported but pass.")
    Term.(const run $ file)

let check_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed; a seed fully determines the batch.")
  in
  let iters =
    Arg.(
      value & opt int 500
      & info [ "iters" ] ~docv:"K" ~doc:"Number of random scenarios to replay.")
  in
  let max_events =
    Arg.(
      value & opt int 160
      & info [ "max-events" ] ~docv:"N" ~doc:"Upper bound on events per scenario.")
  in
  let bug =
    let bug_conv =
      Arg.enum
        [
          ("mru", Check.Oracle.Mru_instead_of_lru);
          ("ignore-mask", Check.Oracle.Ignore_mask);
          ("skip-writeback", Check.Oracle.Skip_writeback_count);
          ("fast-path", Check.Oracle.Fast_path);
          ("machine-fast-path", Check.Oracle.Machine_fast_path);
          ("mrc", Check.Oracle.Mrc);
          ("sample", Check.Oracle.Sample);
          ("gen", Check.Oracle.Gen);
          ("wcet", Check.Oracle.Wcet);
          ("event", Check.Oracle.Event);
          ("shard", Check.Oracle.Shard);
        ]
    in
    Arg.(
      value & opt (some bug_conv) None
      & info [ "inject-bug" ] ~docv:"BUG"
          ~doc:
            "Plant an intentional defect ($(b,mru), $(b,ignore-mask), \
             $(b,skip-writeback) in the oracle, $(b,fast-path) in the \
             batched real-side driver, $(b,machine-fast-path) in the \
             machine-level batched replay, $(b,mrc) in the stack-distance \
             engine's access feed, $(b,sample) in the sampled mrc \
             estimator's rescale, $(b,gen) in the workload generator's \
             Zipf sampler, $(b,wcet) in the static cache analysis's \
             must-join, $(b,event) in the event core's MSHR-merge path, or \
             $(b,shard) in the sharded stack-distance merge loop) \
             to demonstrate that the harness catches and \
             shrinks it. Exit status is inverted: the run fails if the bug \
             is NOT caught.")
  in
  let replay =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one saved scenario (the format printed for shrunk repros) instead of generating a batch.")
  in
  let fast_path =
    Arg.(
      value & flag
      & info [ "fast-path" ]
          ~doc:
            "With $(b,--replay): drive the real side through the batched \
             access_trace entry point. Repros the soak reports as caught by \
             the fast-path driver only diverge under this flag.")
  in
  let machine_fast_path =
    Arg.(
      value & flag
      & info [ "machine-fast-path" ]
          ~doc:
            "With $(b,--replay): replay the scenario through the \
             machine-level differential (scalar System.access vs batched \
             System.run_packed_requests, counters and request-window \
             latencies) instead of the cache-level oracle diff. \
             Repros the soak reports as caught by the machine batched-replay \
             driver only diverge under this flag.")
  in
  let mrc =
    Arg.(
      value & flag
      & info [ "mrc" ]
          ~doc:
            "With $(b,--replay): replay the scenario through the \
             stack-distance differential (single-pass Stack_dist engine vs \
             exact per-associativity LRU Sassoc replays) instead of the \
             cache-level oracle diff. Repros the soak reports as caught by \
             the stack-distance mrc driver only diverge under this flag.")
  in
  let sample =
    Arg.(
      value & flag
      & info [ "sample" ]
          ~doc:
            "With $(b,--replay): replay the scenario through the \
             sampled-vs-exact differential (SHARDS-sampled Stack_dist \
             estimator vs the exact engine, within the error bound) \
             instead of the cache-level oracle diff. Repros the soak \
             reports as caught by the sampled mrc error-bound driver only \
             diverge under this flag.")
  in
  let event =
    Arg.(
      value & flag
      & info [ "event" ]
          ~doc:
            "With $(b,--replay): replay the scenario through the \
             event-core count differential (blocking in-order scalar \
             System.access vs the MSHR/DRAM event core, all functional \
             counts compared) instead of the cache-level oracle diff. \
             Repros the soak reports as caught by the event-core driver \
             only diverge under this flag.")
  in
  let shard =
    Arg.(
      value & flag
      & info [ "shard" ]
          ~doc:
            "With $(b,--replay): replay the scenario through the \
             sharded-vs-serial differential (set-sharded parallel \
             Stack_dist engines, merged, vs the serial engine, every \
             reading compared exactly) instead of the cache-level oracle \
             diff. Repros the soak reports as caught by the \
             sharded-vs-serial driver only diverge under this flag.")
  in
  let run seed iters max_events bug replay fast_path machine_fast_path mrc
      sample event shard =
    match replay with
    | Some path ->
        let ic = open_in path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let sc =
          try Check.Scenario.of_string text
          with Invalid_argument msg ->
            Format.eprintf "%s: %s@." path msg;
            exit 1
        in
        if shard then
          match Check.Shard_diff.run_scenario ?bug sc with
          | Check.Shard_diff.Agree ->
              Format.fprintf ppf
                "%s: sharded and serial engine readings agree@." path
          | Check.Shard_diff.Diverge { step; detail } ->
              Format.fprintf ppf "%s: DIVERGENCE at event %d: %s@." path step
                detail;
              exit 1
        else if event then
          match Check.Event_diff.run_scenario ?bug sc with
          | Check.Event_diff.Agree ->
              Format.fprintf ppf
                "%s: event core and in-order oracle counts agree@." path
          | Check.Event_diff.Diverge { step; detail } ->
              Format.fprintf ppf "%s: DIVERGENCE at event %d: %s@." path step
                detail;
              exit 1
        else if sample then
          match Check.Sample_diff.run_scenario ?bug sc with
          | Check.Sample_diff.Agree ->
              Format.fprintf ppf
                "%s: sampled estimator within the error bound@." path
          | Check.Sample_diff.Diverge { step; detail } ->
              Format.fprintf ppf "%s: DIVERGENCE at event %d: %s@." path step
                detail;
              exit 1
        else if mrc then
          match Check.Mrc_diff.run_scenario ?bug sc with
          | Check.Mrc_diff.Agree ->
              Format.fprintf ppf
                "%s: stack-distance engine and exact LRU replays agree@." path
          | Check.Mrc_diff.Diverge { step; detail } ->
              Format.fprintf ppf "%s: DIVERGENCE at event %d: %s@." path step
                detail;
              exit 1
        else if machine_fast_path then
          match Check.Machine_diff.run_scenario ?bug sc with
          | Check.Machine_diff.Agree ->
              Format.fprintf ppf
                "%s: scalar and batched machine replay agree@." path
          | Check.Machine_diff.Diverge { step; detail } ->
              Format.fprintf ppf "%s: DIVERGENCE at event %d: %s@." path step
                detail;
              exit 1
        else (
          match Check.Diff.run_scenario ?bug ~fast_path sc with
          | Check.Diff.Agree -> Format.fprintf ppf "%s: simulators and oracle agree@." path
          | Check.Diff.Diverge d ->
              Format.fprintf ppf "%s: DIVERGENCE %a@." path Check.Diff.pp_divergence d;
              exit 1)
    | None -> (
        match Check.Diff.soak ?bug ~max_events ~seed ~iters () with
        | Ok summary ->
            Format.fprintf ppf "check ok: %a@." Check.Diff.pp_summary summary;
            if bug <> None then begin
              Format.eprintf
                "check: injected bug %s was NOT caught in %d iterations@."
                (Check.Oracle.bug_to_string (Option.get bug))
                iters;
              exit 1
            end
        | Error (failure, summary) ->
            if bug <> None then
              Format.fprintf ppf
                "check ok: injected bug %s caught and shrunk@.%a@.(%a)@."
                (Check.Oracle.bug_to_string (Option.get bug))
                Check.Diff.pp_failure failure Check.Diff.pp_summary summary
            else begin
              Format.eprintf "check FAILED (seed %d): %a@.(%a)@." seed
                Check.Diff.pp_failure failure Check.Diff.pp_summary summary;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential conformance soak: replay random column-cache + \
          TLB/tint scenarios through the real simulators and through a \
          naive, obviously-correct oracle, comparing every access and the \
          final state; divergences are shrunk to a minimal replayable \
          repro.")
    Term.(
      const run $ seed $ iters $ max_events $ bug $ replay $ fast_path
      $ machine_fast_path $ mrc $ sample $ event $ shard)

let runfile_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"IF program source (see Ir.Parse).")
  in
  let proc =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"PROC" ~doc:"Procedure to lay out and run.")
  in
  let run file proc scratch meth optimize =
    let program = Ir.Parse.program_of_file file in
    let program = if optimize then Ir.Optimize.optimize program else program in
    let t =
      Colcache.Pipeline.make
        ~cache:(Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
        program
    in
    let stats, part =
      Colcache.Pipeline.run_partitioned t ~proc ~scratchpad_columns:scratch
        ~meth
    in
    Format.fprintf ppf "%a@.@.%a@." Layout.Partition.pp part
      Machine.Run_stats.pp stats
  in
  Cmd.v
    (Cmd.info "runfile"
       ~doc:
         "Parse an IF program from a file, lay one of its procedures out on           the 2 KB column cache, and simulate it (data zero-initialised).")
    Term.(const run $ file $ proc $ scratch_arg $ meth_arg $ optimize_arg)

let wcet_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"IF program source (see Ir.Parse).")
  in
  let proc =
    Arg.(
      value & opt (some string) None
      & info [ "proc" ] ~docv:"PROC"
          ~doc:"Bound only PROC (default: every procedure).")
  in
  let line_size =
    Arg.(
      value & opt int 16
      & info [ "line-size" ] ~docv:"BYTES" ~doc:"Cache line size.")
  in
  let sets =
    Arg.(
      value & opt int 16
      & info [ "sets" ] ~docv:"N" ~doc:"Cache sets (power of two).")
  in
  let ways =
    Arg.(
      value & opt int 4
      & info [ "ways" ] ~docv:"W"
          ~doc:
            "Ways (columns). Without $(b,--alloc), each procedure is \
             bounded on a private W-way cache; with it, W is the total \
             column budget split between the procedures.")
  in
  let alloc =
    Arg.(
      value
      & opt (some (enum [ ("mrc", `Mrc); ("wcet", `Wcet); ("equal", `Equal) ]))
          None
      & info [ "alloc" ] ~docv:"POLICY"
          ~doc:
            "Treat the procedures as concurrent tasks and split the \
             $(b,--ways) columns between them: $(b,wcet) minimizes the \
             largest statically proven per-task miss bound, $(b,mrc) \
             follows measured miss-ratio curves (average-optimal, \
             worst-case-blind), $(b,equal) splits evenly.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also interpret each procedure (data zero-initialised) and \
             replay its trace against an isolated cache of the bounded \
             geometry, reporting observed misses next to the static bound.")
  in
  let run file proc line_size sets ways alloc compare =
    let program =
      match Ir.Parse.program_of_file file with
      | p -> p
      | exception Ir.Parse.Parse_error { line; message } ->
          Format.eprintf "%s:%d: %s@." file line message;
          exit 1
      | exception Ir.Ast.Invalid_program message ->
          Format.eprintf "%s: invalid program: %s@." file message;
          exit 1
    in
    let procs =
      match proc with
      | Some p ->
          if
            not
              (List.exists
                 (fun pr -> pr.Ir.Ast.proc_name = p)
                 program.Ir.Ast.procs)
          then begin
            Format.eprintf "%s: no procedure %S@." file p;
            exit 1
          end;
          [ p ]
      | None -> List.map (fun pr -> pr.Ir.Ast.proc_name) program.Ir.Ast.procs
    in
    let analyze_at ~ways name =
      Ir.Cache_analysis.analyze
        { Ir.Cache_analysis.line_size; sets; ways }
        program ~proc:name
    in
    let layout = Ir.Interp.sequential_layout program in
    (* a 0-column task has no cache at all: every access misses *)
    let observed name ~ways =
      let trace = Ir.Interp.trace_of program ~proc:name ~layout in
      if ways = 0 then Memtrace.Trace.length trace
      else begin
        let cache =
          Cache.Sassoc.create
            (Cache.Sassoc.config ~line_size
               ~size_bytes:(line_size * sets * ways)
               ~ways ())
        in
        Cache.Sassoc.access_trace cache trace;
        (Cache.Sassoc.stats cache).Cache.Stats.misses
      end
    in
    let report_one ~ways name =
      let t = analyze_at ~ways name in
      Format.fprintf ppf "%a@." Ir.Cache_analysis.pp t;
      (match
         ( t.Ir.Cache_analysis.wcet_misses,
           t.Ir.Cache_analysis.accesses,
           t.Ir.Cache_analysis.alu )
       with
      | Some misses, Some accesses, Some alu ->
          let timing = Machine.Timing.default in
          let writebacks =
            Option.value ~default:misses (Ir.Cache_analysis.writeback_bound t)
          in
          Format.fprintf ppf
            "worst-case cycles (hit %d, miss %d, writeback %d): %d@."
            timing.Machine.Timing.hit_cycles
            timing.Machine.Timing.miss_penalty
            timing.Machine.Timing.writeback_penalty
            (Machine.Timing.wcet_cycle_bound timing ~alu ~accesses ~misses
               ~writebacks ~tlb_misses:0)
      | _ ->
          Format.fprintf ppf
            "worst-case cycles: unbounded (unbounded misses or accesses)@.");
      if compare then
        Format.fprintf ppf "observed in replay: %d misses (bound %s)@."
          (observed name ~ways)
          (match t.Ir.Cache_analysis.wcet_misses with
          | Some b -> string_of_int b
          | None -> "unbounded")
    in
    match alloc with
    | None ->
        List.iteri
          (fun i name ->
            if i > 0 then Format.fprintf ppf "@.";
            report_one ~ways name)
          procs
    | Some policy ->
        let n = List.length procs in
        if n > ways then begin
          Format.eprintf
            "wcet: %d procedures but only %d columns to split (--ways)@." n
            ways;
          exit 1
        end;
        let curves =
          List.map
            (fun name ->
              ( name,
                Array.init (ways + 1) (fun c ->
                    match
                      (analyze_at ~ways:c name).Ir.Cache_analysis.wcet_misses
                    with
                    | Some b -> float_of_int b
                    | None -> infinity) ))
            procs
        in
        let allocation =
          match policy with
          | `Equal -> List.map (fun name -> (name, ways / n)) procs
          | `Wcet -> Layout.Wcet_alloc.allocate ~columns:ways curves
          | `Mrc ->
              let miss_curves =
                List.map
                  (fun name ->
                    let sd =
                      Cache.Stack_dist.create ~line_size ~sets ~max_ways:ways
                        ()
                    in
                    Memtrace.Trace.iter
                      (fun a ->
                        Cache.Stack_dist.access sd ~kind:a.Memtrace.Access.kind
                          a.Memtrace.Access.addr)
                      (Ir.Interp.trace_of program ~proc:name ~layout);
                    (name, Cache.Stack_dist.miss_curve sd))
                  procs
              in
              Layout.Mrc_alloc.allocate ~columns:ways miss_curves
        in
        Format.fprintf ppf "allocation (%s, %d columns):@."
          (match policy with
          | `Mrc -> "mrc"
          | `Wcet -> "wcet"
          | `Equal -> "equal")
          ways;
        List.iter
          (fun (name, cols) ->
            let bound = (List.assoc name curves).(cols) in
            Format.fprintf ppf "  %-16s %d column%s  bound %s%s@." name cols
              (if cols = 1 then " " else "s")
              (if Float.is_finite bound then
                 string_of_int (int_of_float bound)
               else "unbounded")
              (if compare then
                 Printf.sprintf "  observed %d" (observed name ~ways:cols)
               else ""))
          allocation;
        let worst =
          List.fold_left
            (fun acc (name, _) ->
              Float.max acc (Layout.Wcet_alloc.bound_of curves allocation name))
            neg_infinity allocation
        in
        Format.fprintf ppf "largest per-task bound: %s@."
          (if Float.is_finite worst then string_of_int (int_of_float worst)
           else "unbounded")
  in
  Cmd.v
    (Cmd.info "wcet"
       ~doc:
         "Abstract-interpretation cache analysis of an IF program: per-site \
          must/may/persistence classifications, sound worst-case miss and \
          cycle bounds per procedure, and optionally ($(b,--alloc)) a \
          WCET-aware split of the cache columns across the procedures.")
    Term.(
      const run $ file $ proc $ line_size $ sets $ ways $ alloc $ compare)

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file (colcache-trace v1).")
  in
  let size =
    Arg.(
      value & opt int 2048
      & info [ "size" ] ~docv:"BYTES" ~doc:"Cache size in bytes.")
  in
  let ways =
    Arg.(value & opt int 4 & info [ "ways" ] ~docv:"N" ~doc:"Columns (ways).")
  in
  let events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Replay through the event-driven timing core — MSHRs with \
             $(b,--mlp) outstanding misses and a banked open-row DRAM model \
             ($(b,--banks)) — instead of the blocking in-order path. Every \
             functional count is identical either way; only the cycle \
             accounting changes.")
  in
  let mlp =
    Arg.(
      value & opt int 4
      & info [ "mlp" ] ~docv:"N"
          ~doc:
            "MSHR slots (outstanding misses) for $(b,--events); the core \
             stalls on a miss only when all N are busy.")
  in
  let banks =
    Arg.(
      value & opt int 4
      & info [ "banks" ] ~docv:"N"
          ~doc:"DRAM banks (one open row each) for $(b,--events).")
  in
  let run file size ways events mlp banks =
    if mlp < 1 then
      `Error
        (false, Printf.sprintf "--mlp must be a positive MSHR count, got %d" mlp)
    else if banks < 1 then
      `Error
        ( false,
          Printf.sprintf "--banks must be a positive DRAM bank count, got %d"
            banks )
    else begin
      (* load_packed mmaps binary traces in place, so replays of traces far
         larger than RAM stream through the batched machine path. *)
      let packed = Memtrace.Trace_file.load_packed ~path:file in
      let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:size ~ways () in
      let system = Machine.System.create (Machine.System.config cache) in
      let stats =
        (* a corrupt kind byte in a mapped trace is rejected before the
           replay starts *)
        try
          if events then
            let events =
              Machine.Event.config ~mlp ~dram:(Machine.Dram.config ~banks ()) ()
            in
            Machine.System.run_packed_events system ~events packed
          else Machine.System.run_packed system packed
        with Invalid_argument msg ->
          Format.eprintf "%s: %s@." file msg;
          exit 1
      in
      `Ok (Format.fprintf ppf "%a@." Machine.Run_stats.pp stats)
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a saved trace (text or packed binary) against a chosen \
          cache geometry, through the blocking in-order core or \
          ($(b,--events)) the event-driven MSHR/DRAM core.")
    Term.(ret (const run $ file $ size $ ways $ events $ mlp $ banks))

let multitask_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the epoch scheduler. The printed outcome is \
             byte-identical whatever N is; only the wall-clock time changes.")
  in
  let run jobs =
    if jobs < 1 then
      `Error
        ( false,
          Printf.sprintf "--jobs must be a positive domain count, got %d" jobs
        )
    else if jobs > Colcache.Experiments.Multitask_domains.task_count then
      `Error
        ( false,
          Printf.sprintf
            "--jobs exceeds the task count: %d worker domains for %d tasks"
            jobs Colcache.Experiments.Multitask_domains.task_count )
    else
      `Ok
        (Format.fprintf ppf "%a"
           Colcache.Experiments.Multitask_domains.print
           (Colcache.Experiments.Multitask_domains.run ~jobs ()))
  in
  Cmd.v
    (Cmd.info "multitask"
       ~doc:
         "Epoch-synchronized multitask replay: one worker domain per job \
          slot, private per-task systems over exclusive column partitions, \
          blocking vs event-driven cycle accounting and the gang-timeline \
          makespan.")
    Term.(ret (const run $ jobs))

let gen_cmd =
  let dist =
    Arg.(
      value
      & opt (enum [ ("zipf", `Zipf); ("uniform", `Uniform); ("scan", `Scan);
                    ("hotset", `Hotset); ("kv", `Kv) ])
          `Zipf
      & info [ "dist" ] ~docv:"DIST"
          ~doc:
            "Distribution: $(b,zipf), $(b,uniform), $(b,scan), $(b,hotset) \
             (drifting hot window) or $(b,kv) (synthetic KV-store requests: \
             hash probe + value walk).")
  in
  let n =
    Arg.(
      value & opt int 4096
      & info [ "n" ] ~docv:"N"
          ~doc:"Accesses to emit ($(b,kv): requests to emit).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"PRNG seed; equal seeds give byte-identical traces.")
  in
  let items =
    Arg.(
      value & opt int 256
      & info [ "items" ] ~docv:"I"
          ~doc:"Rank-space size ($(b,kv): number of keys).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew (zipf and kv only).")
  in
  let apr =
    Arg.(
      value & opt int 8
      & info [ "accesses-per-request" ] ~docv:"K"
          ~doc:"Request window size for latency accounting (not $(b,kv), \
                whose requests are structural).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Save the trace to FILE (colcache-trace v1 format).")
  in
  let simulate =
    Arg.(
      value & flag
      & info [ "simulate" ]
          ~doc:
            "Replay the trace on the 2 KB 4-way machine model and report \
             aggregate statistics plus per-request latency percentiles.")
  in
  let run dist n seed items theta apr out simulate =
    let trace =
      match dist with
      | `Kv ->
          Workloads.Gen.kv ~theta ~seed ~requests:n ~keys:items
            ~buckets:(max 1 (items / 4)) ~value_lines:4 ()
      | (`Zipf | `Uniform | `Scan | `Hotset) as d ->
          let stream =
            match d with
            | `Zipf -> Workloads.Gen.Zipf { items; theta }
            | `Uniform -> Workloads.Gen.Uniform { items }
            | `Scan -> Workloads.Gen.Scan { items }
            | `Hotset ->
                Workloads.Gen.Hot_set
                  {
                    items;
                    hot_items = max 1 (items / 8);
                    hot_prob = 0.9;
                    drift_every = max 1 (n / 8);
                  }
          in
          Workloads.Gen.emit ~accesses_per_request:apr ~seed ~n stream
    in
    Format.fprintf ppf
      "%d accesses in %d requests, addresses [%d, %d), %d instructions@."
      (Memtrace.Packed.length trace.Workloads.Gen.packed)
      (Array.length trace.Workloads.Gen.requests)
      trace.Workloads.Gen.base trace.Workloads.Gen.limit
      (Memtrace.Packed.instructions trace.Workloads.Gen.packed);
    (match out with
    | None -> ()
    | Some path ->
        Memtrace.Trace_file.save ~path
          (Memtrace.Packed.to_trace trace.Workloads.Gen.packed);
        Format.fprintf ppf "saved to %s@." path);
    if simulate then begin
      let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 () in
      let system = Machine.System.create (Machine.System.config cache) in
      let stats =
        Machine.System.run_packed_requests system trace.Workloads.Gen.packed
          ~requests:trace.Workloads.Gen.requests
      in
      Format.fprintf ppf "@.%a@." Machine.Run_stats.pp stats
    end
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Emit a traffic-shaped workload trace (Zipf, uniform, scan, \
          drifting hot set, or synthetic KV-store requests) from a seed; \
          optionally save it or replay it with per-request tail-latency \
          accounting.")
    Term.(const run $ dist $ n $ seed $ items $ theta $ apr $ out $ simulate)

let main_cmd =
  Cmd.group
    (Cmd.info "colcache" ~version:"1.0.0"
       ~doc:
         "Application-specific memory management with software-controlled \
          (column) caches — reproduction of Chiou et al., DAC 2000.")
    [
      fig3_cmd; fig4_cmd; fig4d_cmd; fig5_cmd; ablations_cmd; all_cmd;
      export_cmd;
      dynamic_cmd; layout_cmd; simulate_cmd; trace_cmd; replay_cmd;
      multitask_cmd; mrc_cmd;
      check_cmd; validate_cmd; runfile_cmd; wcet_cmd; gen_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
