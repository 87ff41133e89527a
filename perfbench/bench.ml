(* colcache's benchmark: one workload per run, end to end or per layer.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed (several times, to time the
   set-up), repeats the workload's timed pass on one domain for S seconds,
   checks the outputs against independent library paths, and prints every
   metric by name and unit, with one JSON object as the last line. With
   [--trace 1] it then runs three traced passes and the isolated layer passes,
   prints the spans and their reconciliation, and reports the per-layer
   metrics instead of the end-to-end ones.

   Simulated caches, TLBs and stack-distance engines start empty in every
   pass, as in the CLI. Trace files are written during set-up, so passes
   read them through a warm page cache. The repository holds no hardware
   reference for the model, so no accuracy figure is given. *)

open Colcache
open Perfbench
module System = Machine.System
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency
module Stack_dist = Cache.Stack_dist
module Packed = Memtrace.Packed
module E = Experiments

let span = Spans.span

(* A pass is a sequence of named steps, each run through [time]: run_s adds
   up each step's statistic over the passes ([step_time]). The traced
   passes run their steps through [untimed]. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

type 'o instance = {
  accesses : int Lazy.t;
      (** simulated accesses replayed or swept per pass; forced after the
          timed phase, so counting them is not set-up time *)
  pass : timer -> 'o;  (** the timed phase, once, as its steps *)
  render : 'o -> string;  (** every simulated output of a pass *)
  checks : 'o -> Checks.outcome list;  (** on the first pass's outputs *)
  sim : 'o -> float * string;
      (** sim_cpi, and the rendered counters it comes from *)
  report : 'o -> (string * float * string) list;
      (** workload-specific simulated figures, printed only *)
  layer_input : unit -> Layers.input;
}

type workload =
  | W : {
      name : string;
      setup : seed:int -> path:(string -> string) -> 'o instance;
    }
      -> workload

let nproc = Domain.recommended_domain_count ()

(* zipf-replay: what `colcache replay FILE.pk` does, on a trace that
   mostly misses. *)
let zipf_replay ~seed ~path =
  let zipf_n = Inputs.zipf_n in
  let file = path "zipf.pk" in
  Inputs.synth_zipf ~seed ~n:zipf_n file;
  let config = Inputs.replay_config in
  {
    accesses = Lazy.from_val zipf_n;
    pass =
      (fun step ->
        step.time "replay" (fun () ->
            let p = span "memtrace.map_file" (fun () -> Packed.map_file file) in
            span "machine.System.run_packed" (fun () ->
                System.run_packed (System.create config) p)));
    render = Fields.render_stats;
    checks =
      (fun got -> [ Checks.replay_matches_sweep config ~got (Packed.map_file file) ]);
    sim = (fun s -> (Run_stats.cpi s, ""));
    report = (fun _ -> []);
    layer_input =
      (fun () ->
        {
          Layers.trace = Packed.map_file file;
          config;
          requests = Inputs.windows ~k:8 zipf_n;
        });
  }

(* kv-events: one closed-loop client replaying KV requests through the
   blocking per-request path, then through the MSHR/DRAM event core. *)
let kv_events ~seed ~path:_ =
  let trace = Inputs.kv ~seed ~requests:Inputs.kv_requests in
  let p = trace.Workloads.Gen.packed and requests = trace.Workloads.Gen.requests in
  let config = Inputs.replay_config in
  let n = Packed.length p in
  {
    accesses = Lazy.from_val (2 * n);
    pass =
      (fun step ->
        step.time "requests" (fun () ->
            let blocking =
              span "machine.System.run_packed_requests" (fun () ->
                  System.run_packed_requests (System.create config) p ~requests)
            in
            let events =
              span "machine.System.run_packed_requests_events" (fun () ->
                  System.run_packed_requests_events (System.create config)
                    ~events:Machine.Event.default_config p ~requests)
            in
            (blocking, events)));
    render = (fun (b, e) -> Fields.render_stats b ^ Fields.render_stats e);
    checks =
      (fun (blocking, events) ->
        [
          Checks.events_match_blocking ~blocking ~events;
          Checks.latencies_match_sweep config ~got:blocking ~requests p;
        ]);
    sim = (fun (_, e) -> (Run_stats.cpi e, ""));
    report =
      (fun (_, e) ->
        [
          ("sim_p99_cycles", float_of_int (Latency.p99 e.Run_stats.requests), "cycles");
          ("sim_requests", float_of_int (Latency.count e.Run_stats.requests), "count");
        ]);
    layer_input =
      (fun () ->
        {
          Layers.trace = p;
          config;
          requests;
        });
  }

(* zipf-mrc: `colcache mrc FILE.pk` in its three modes, over one mapping
   of the file per pass. *)
let sample_rate = 0.1

type mrc_out = {
  exact : Stack_dist.t;
  sampled : Stack_dist.Sampled.t;
  windowed : float array;
}

let render_mrc o =
  Fields.render_ints "exact" (Array.of_list (List.map snd (Checks.engine_fields o.exact)))
  ^ Fields.render_floats "exact_mrc" (Stack_dist.mrc o.exact)
  ^ Fields.render_ints "sampled" (Stack_dist.Sampled.raw_miss_curve o.sampled)
  ^ Fields.render_floats "sampled_mrc" (Stack_dist.Sampled.mrc_est o.sampled)
  ^ Fields.render_floats "windowed_mrc" o.windowed

let zipf_mrc ~seed ~path =
  let mrc_n = Inputs.zipf_n in
  let file = path "zipf.pk" in
  Inputs.synth_zipf ~seed ~n:mrc_n file;
  let g = Inputs.mrc_geometry in
  let { Checks.line_size; sets; max_ways } = g in
  let window, epochs = Layers.window_of mrc_n in
  {
    accesses = Lazy.from_val (3 * mrc_n);
    pass =
      (fun step ->
        step.time "mrc" @@ fun () ->
        let p = span "memtrace.map_file" (fun () -> Packed.map_file file) in
        let exact =
          span "cache.Stack_dist.of_packed_parallel" (fun () ->
              Stack_dist.of_packed_parallel ~jobs:1 ~line_size ~sets ~max_ways p)
        in
        let sampled =
          span "cache.Stack_dist.Sampled.access_packed" (fun () ->
              let e =
                Stack_dist.Sampled.create ~seed:0 ~rate:sample_rate ~line_size ~sets
                  ~max_ways ()
              in
              Stack_dist.Sampled.access_packed e p;
              e)
        in
        let windowed =
          span "cache.Stack_dist.Windowed.observe_packed" (fun () ->
              let e =
                Stack_dist.Windowed.create ~window ~epochs ~line_size ~sets ~max_ways ()
              in
              Stack_dist.Windowed.observe_packed e p;
              Stack_dist.Windowed.mrc_now e)
        in
        { exact; sampled; windowed });
    render = render_mrc;
    checks =
      (fun o ->
        let p = Packed.map_file file in
        [
          Checks.exact_mrc_matches_sharded g ~got:o.exact p;
          Checks.sampled_mrc_matches_sharded g ~rate:sample_rate ~seed:0 ~got:o.sampled p;
          Checks.sampled_mrc_within_bound
            ~est:(Stack_dist.Sampled.mrc_est o.sampled)
            ~sampled_accesses:(Stack_dist.Sampled.sampled_accesses o.sampled)
            ~exact_mrc:(Stack_dist.mrc o.exact) ~ways:max_ways;
        ]);
    (* zipf-mrc never enters the machine; its CPI is the closed-form sweep's
       on the same 8-way cache, computed after the timed phase. *)
    sim =
      (fun _ ->
        match Checks.sweep_standard Inputs.replay_config (Packed.map_file file) with
        | Some s -> (Run_stats.cpi s, Fields.render_stats s)
        | None -> failwith "zipf-mrc: closed form unavailable");
    report =
      (fun o ->
        [
          ( "sim_mrc_abs_err",
            Checks.mean_abs_error ~est:(Stack_dist.Sampled.mrc_est o.sampled)
              ~exact:(Stack_dist.mrc o.exact) ~ways:max_ways,
            "ratio" );
        ]);
    layer_input =
      (fun () ->
        {
          Layers.trace = Packed.map_file file;
          config = Inputs.replay_config;
          requests = Inputs.windows ~k:8 mrc_n;
        });
  }

(* paper-eval: the experiments `colcache all` prints, serially, with the
   two round-robin quantum sweeps cut to two quanta each. Its inputs are
   the paper's fixed kernels, so the seed changes nothing here. Each step
   is one experiment, or one (cache size, quantum) of Fig5 or (TLB size,
   quantum) of Ablation_tlb. Those sweeps are 95% of the ~8-second pass; a
   step of about a second falls within one host-speed mode (see
   [step_time]) far more often than a whole pass does. *)
let fig5_quanta = [ 16; 65536 ]
let fig5_cache_kbs = [ 16; 128 ]
let tlb_quanta = [ 16; 65536 ]
let tlb_sizes = [ 8; 32; 128 ]

(* (step, experiment, run): [run] prints what `colcache all` prints for it. *)
let experiments =
  let render print run () = Format.asprintf "%a" print (run ()) in
  let one name print run = [ (name, name, render print run) ] in
  let grid name xs ys label run =
    List.concat_map
      (fun x -> List.map (fun y -> (label x y, name, run x y)) ys)
      xs
  in
  one "Fig3" E.Fig3.print (fun () -> E.Fig3.run ())
  @ one "Fig4_routines" E.Fig4_routines.print (fun () -> E.Fig4_routines.run ())
  @ one "Fig4_combined" E.Fig4_combined.print (fun () -> E.Fig4_combined.run ())
  @ grid "Fig5" fig5_cache_kbs fig5_quanta (Printf.sprintf "Fig5.%dk.q%d")
      (fun kb q -> render E.Fig5.print (fun () -> E.Fig5.run ~quanta:[ q ] ~cache_kbs:[ kb ] ()))
  @ one "Ablation_policy" E.Ablation_policy.print E.Ablation_policy.run
  @ one "Ablation_columns" E.Ablation_columns.print (fun () -> E.Ablation_columns.run ())
  @ one "Ablation_weights" E.Ablation_weights.print E.Ablation_weights.run
  @ one "Ablation_grouping" E.Ablation_grouping.print E.Ablation_grouping.run
  @ one "Mrc_layout" E.Mrc_layout.print E.Mrc_layout.run
  @ one "Ablation_page_coloring" E.Ablation_page_coloring.print E.Ablation_page_coloring.run
  @ one "Ablation_l2" E.Ablation_l2.print E.Ablation_l2.run
  @ one "Ablation_prefetch" E.Ablation_prefetch.print E.Ablation_prefetch.run
  @ grid "Ablation_tlb" tlb_sizes tlb_quanta (Printf.sprintf "Ablation_tlb.%d.q%d")
      (fun size q ->
        render E.Ablation_tlb.print (fun () ->
            E.Ablation_tlb.run ~quanta:[ q ] ~sizes:[ size ] ()))
  @ one "Ablation_optimizer" E.Ablation_optimizer.print E.Ablation_optimizer.run
  @ one "Generality" E.Generality.print E.Generality.run
  @ one "Tail_latency" E.Tail_latency.print E.Tail_latency.run
  @ one "Wcet_partition" E.Wcet_partition.print E.Wcet_partition.run
  @ one "Multitask_domains" E.Multitask_domains.print (fun () -> E.Multitask_domains.run ())
  @ one "Mrc_scaling" E.Mrc_scaling.print (fun () ->
        E.Mrc_scaling.run ~jobs_list:(List.filter (fun j -> j <= nproc) [ 1; 2; 4 ]) ())
  @ one "Windowed_mrc" E.Windowed_mrc.print E.Windowed_mrc.run

let paper_eval ~seed:_ ~path:_ =
  let pipeline = Inputs.mpeg_pipeline () in
  let routines =
    List.map (fun proc -> (proc, Pipeline.packed_trace_of pipeline ~proc))
      Workloads.Mpeg.routines
  in
  let jobs = Inputs.lz77_jobs () in
  let fig5_job_accesses = Inputs.job_accesses jobs in
  {
    (* Each round-robin point replays the three LZ77 jobs once. *)
    accesses =
      lazy
        ((List.length fig5_cache_kbs * 2 * List.length fig5_quanta * fig5_job_accesses)
        + (List.length tlb_sizes * List.length tlb_quanta
          * Inputs.job_accesses (Inputs.lz77_jobs ~input_len:8192 ())));
    pass =
      (fun step ->
        List.map
          (fun (label, name, run) ->
            step.time label (fun () -> span ("core.Experiments." ^ name) run))
          experiments);
    render = String.concat "";
    checks =
      (fun _ ->
        List.map
          (fun (proc, packed) -> Checks.routine_matches_closed_form pipeline ~proc packed)
          routines);
    sim =
      (fun _ ->
        let s =
          Pipeline.run_dynamic pipeline ~procs:Workloads.Mpeg.routines
            ~meth:Pipeline.Profile_based
        in
        (Run_stats.cpi s, Fields.render_stats s));
    report = (fun _ -> []);
    layer_input =
      (fun () ->
        {
          Layers.trace =
            Inputs.concat (List.map (fun j -> Packed.of_trace j.Sched.Round_robin.trace) jobs);
          config = Inputs.fig5_config;
          requests = Inputs.windows ~k:8 fig5_job_accesses;
        });
  }

let workloads =
  [
    W { name = "paper-eval"; setup = paper_eval };
    W { name = "zipf-replay"; setup = zipf_replay };
    W { name = "kv-events"; setup = kv_events };
    W { name = "zipf-mrc"; setup = zipf_mrc };
  ]

(* --- measurement ------------------------------------------------------ *)

let setups = 3
let min_passes = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The statistic of one step's times that run_s adds up: the highest
   percentile with at least ten samples above it, or the slowest sample
   when a step has fewer than twenty. On a shared 2-vCPU 2.1 GHz virtual
   machine, host speed swings between a prevailing mode and bursts up to
   ~1.8x faster, lasting from under a second to about a minute (a
   register-only loop varied 2.5x over 30 s); the slow side stays in the
   prevailing mode when a burst covers part of a run, where the median
   flips between the two. Over 20-second windows of one 4-minute
   zipf-replay series on that machine its spread (IQR/median) was 0.07,
   against 0.10 for the median. paper-eval's steps get three samples in a
   20-second run; over ten such runs the sum of each step's slowest sample
   spread 0.06, the median pass 0.11. *)
let step_time times =
  let n = List.length times in
  let sorted = List.sort compare times in
  List.nth sorted (if n < 20 then n - 1 else n - 11)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* Repeat [pass] until [seconds] have gone by (and at least [min_passes]
   times), timing each of its steps. Each pass starts from a collected
   heap; the collection is not timed. Only the first pass's outputs are
   kept whole; the others are kept rendered, so the heap, and the peak RSS,
   do not grow with the number of passes. Returns the first pass's outputs,
   every pass's render, and every pass's (step, seconds) list. *)
let timed_passes ~seconds ~render pass =
  let start = Unix.gettimeofday () in
  let rec loop first renders passes =
    match first with
    | Some o when List.length passes >= min_passes && Unix.gettimeofday () -. start >= seconds
      ->
        (o, List.rev renders, List.rev passes)
    | _ ->
        Gc.full_major ();
        let steps = ref [] in
        let time name f =
          let r, t = timed f in
          steps := (name, t) :: !steps;
          r
        in
        let o = pass { time } in
        loop (if first = None then Some o else first) (render o :: renders)
          (List.rev !steps :: passes)
  in
  loop None [] []

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_result ~checks ~metrics =
  let failed = List.length (List.filter (fun c -> c.Checks.failure <> None) checks) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (List.length checks) failed
    (String.concat ", " (List.map json_metric metrics));
  failed

let print_metric (name, value, unit) = Printf.printf "metric %s %.6g %s\n" name value unit

(* One traced pass's reconciliation: each call's self time, and the part
   of the pass no span covers; together they make up the pass. *)
let reconcile ~name ~accesses spans pass_span =
  let kids = Spans.children spans pass_span.Spans.id in
  let names = List.sort_uniq compare (List.map (fun s -> s.Spans.name) kids) in
  let covered = ref 0. in
  Printf.printf "reconcile %s pass %d: traced pass %.6f s\n" name pass_span.Spans.pass
    (Spans.duration pass_span);
  List.iter
    (fun n ->
      let mine = List.filter (fun s -> s.Spans.name = n) kids in
      let self = List.fold_left (fun acc s -> acc +. Spans.self_time spans s) 0. mine in
      covered := !covered +. self;
      Printf.printf "  self %-46s %.6f s  %d calls  %.1f ns/access\n" n self
        (List.length mine)
        (self *. 1e9 /. float_of_int (max 1 accesses)))
    names;
  let uncovered = Spans.self_time spans pass_span in
  Printf.printf "  uncovered %.6f s; self %.6f + uncovered %.6f = %.6f s\n" uncovered
    !covered uncovered (!covered +. uncovered)

let run_workload (W { name; setup }) ~seed ~seconds ~trace =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let prefix = Printf.sprintf "%s/%s-%d-" dir name (Unix.getpid ()) in
  let made = ref [] in
  let path suffix =
    let p = prefix ^ suffix in
    if not (List.mem p !made) then made := p :: !made;
    p
  in
  let cleanup () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) !made;
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let setup_times = ref [] and inst = ref None in
      for _ = 1 to setups do
        Gc.full_major ();
        let i, t = timed (fun () -> setup ~seed ~path) in
        setup_times := t :: !setup_times;
        inst := Some i
      done;
      let inst = Option.get !inst in
      let first, renders, passes = timed_passes ~seconds ~render:inst.render inst.pass in
      let rss = peak_rss_mb () in
      let times = List.map (List.fold_left (fun acc (_, t) -> acc +. t) 0.) passes in
      let step_times =
        List.map (fun (name, _) -> (name, List.map (List.assoc name) passes)) (List.hd passes)
      in
      let run_s = List.fold_left (fun acc (_, ts) -> acc +. step_time ts) 0. step_times in
      let accesses = Lazy.force inst.accesses in
      let checks = inst.checks first @ [ Checks.passes_agree renders ] in
      let sim_cpi, sim_render = inst.sim first in
      Printf.printf "perfbench %s seed %d: %d set-ups, %d passes of %d accesses\n" name seed
        setups (List.length times) accesses;
      Printf.printf "pass_s %s\n"
        (String.concat " " (List.map (Printf.sprintf "%.4f") times));
      if List.length step_times > 1 then
        List.iter
          (fun (step, ts) ->
            Printf.printf "step %s: median %.6f s, counted %.6f s\n" step (median ts)
              (step_time ts))
          step_times;
      Printf.printf "pass median %.6f s, run_s %.6f s over %d passes\n" (median times) run_s
        (List.length times);
      List.iter
        (fun c ->
          match c.Checks.failure with
          | None -> Printf.printf "check ok: %s\n" c.Checks.name
          | Some d -> Printf.printf "check FAILED: %s: %s\n" c.Checks.name d)
        checks;
      Printf.printf "digest %s seed %d %s\n" name seed
        (Digest.to_hex (Digest.string (List.hd renders ^ sim_render)));
      let failed_frac =
        float_of_int (List.length (List.filter (fun c -> c.Checks.failure <> None) checks))
        /. float_of_int (List.length checks)
      in
      let end_to_end =
        [
          ("setup_s", median !setup_times, "s");
          ("run_s", run_s, "s");
          ("macc_per_s", float_of_int accesses /. run_s /. 1e6, "Macc/s");
          ("peak_rss_mb", rss, "MB");
          ("sim_cpi", sim_cpi, "cycles/instr");
        ]
      in
      List.iter print_metric
        (end_to_end @ (("failed_frac", failed_frac, "fraction") :: inst.report first));
      let metrics =
        if not trace then end_to_end
        else begin
          let input = inst.layer_input () in
          Spans.start ();
          let layers =
            span ("workload." ^ name) (fun () ->
                for pass = 1 to min_passes do
                  Gc.full_major ();
                  Spans.set_pass pass;
                  ignore (span "pass" (fun () -> inst.pass untimed))
                done;
                Spans.set_pass 0;
                span "layers" (fun () ->
                    Layers.run ~seed ~scratch:(path "layer.pk") input))
          in
          Spans.stop ();
          let spans = Spans.all () in
          List.iter (fun s -> Printf.printf "span %s\n" (Spans.to_json s)) spans;
          let passes = List.filter (fun s -> s.Spans.name = "pass") spans in
          List.iter (reconcile ~name ~accesses spans) passes;
          (* Like with like: run_s is a slow-side statistic of many passes,
             so the overhead compares the two medians. *)
          let traced = median (List.map Spans.duration passes) in
          Printf.printf
            "tracing overhead %s: traced median %.6f - untraced median %.6f = %.6f s\n" name
            traced (median times) (traced -. median times);
          List.iter print_metric layers;
          layers
        end
      in
      print_result ~checks ~metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun (W w) -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map (fun (W w) -> w.name) workloads));
      exit 2
  | Some w ->
      let failed = run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      exit (if failed = 0 then 0 else 1)
