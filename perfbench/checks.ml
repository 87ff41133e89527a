(* Output checks. Each compares what a workload's timed phase produced with
   an independent path the library already has, and runs outside the timed
   phase. A check returns [failure = None] when the outputs agree. *)

open Colcache
module System = Machine.System
module Run_stats = Machine.Run_stats
module Latency = Machine.Latency
module Stack_dist = Cache.Stack_dist
module Packed = Memtrace.Packed

type outcome = { name : string; failure : string option }

type mrc_geometry = { line_size : int; sets : int; max_ways : int }

let run name f =
  let failure =
    try f () with e -> Some ("raised " ^ Printexc.to_string e)
  in
  { name; failure }

let jobs_for ~sets = max 1 (min (Domain.recommended_domain_count ()) sets)

let sweep_standard ?requests (config : System.config) packed =
  Sweep.standard ?requests ~cache:config.cache ~timing:config.timing
    ~page_size:config.page_size ~tlb_entries:config.tlb_entries [ packed ]

(* zipf-replay: [run_packed]'s counters equal the closed-form sweep's,
   field for field. *)
let replay_matches_sweep (config : System.config) ~(got : Run_stats.t) packed
    =
  run "replay = Sweep.standard" (fun () ->
      match sweep_standard config packed with
      | None -> Some "closed form unavailable for this geometry"
      | Some want -> Fields.first_difference (Fields.sweepable got)
                       (Fields.sweepable want))

(* kv-events: the event core retimes a run but never recounts it. *)
let events_match_blocking ~(blocking : Run_stats.t) ~(events : Run_stats.t) =
  run "event counts = blocking counts" (fun () ->
      Fields.first_difference (Fields.functional events)
        (Fields.functional blocking))

(* kv-events: the blocking pass's counters and per-request latency
   distribution equal the closed-form sweep's. *)
let latencies_match_sweep (config : System.config) ~(got : Run_stats.t)
    ~requests packed =
  run "request latencies = Sweep.standard ~requests" (fun () ->
      match sweep_standard ~requests config packed with
      | None -> Some "closed form unavailable for this geometry"
      | Some want -> (
          match
            Fields.first_difference (Fields.sweepable got)
              (Fields.sweepable want)
          with
          | Some d -> Some d
          | None ->
              if Latency.equal got.requests want.requests then None
              else
                Some
                  (Format.asprintf "latencies differ: %a vs %a" Latency.pp
                     got.requests Latency.pp want.requests)))

let engine_fields e =
  let ways = Stack_dist.max_ways e in
  [
    ("accesses", Stack_dist.accesses e);
    ("cold", Stack_dist.cold_misses e);
    ("overflows", Stack_dist.overflows e);
  ]
  @ List.concat
      (List.init ways (fun i ->
           let w = i + 1 in
           [
             (Printf.sprintf "misses@%d" w, Stack_dist.misses e ~ways:w);
             (Printf.sprintf "evictions@%d" w, Stack_dist.evictions e ~ways:w);
             (Printf.sprintf "writebacks@%d" w, Stack_dist.writebacks e ~ways:w);
           ]))
  @ Array.to_list
      (Array.mapi (fun d n -> (Printf.sprintf "depth%d" d, n))
         (Stack_dist.histogram e))

(* zipf-mrc: the serial exact sweep equals the set-sharded parallel one. *)
let exact_mrc_matches_sharded g ~(got : Stack_dist.t) packed =
  run "exact mrc = of_packed_parallel" (fun () ->
      let want =
        Stack_dist.of_packed_parallel ~jobs:(jobs_for ~sets:g.sets)
          ~line_size:g.line_size ~sets:g.sets ~max_ways:g.max_ways packed
      in
      Fields.first_difference (engine_fields got) (engine_fields want))

let mean_abs_error ~est ~exact ~ways =
  let sum = ref 0. in
  for a = 1 to ways do
    sum := !sum +. abs_float (est.(a) -. exact.(a))
  done;
  !sum /. float_of_int ways

(* zipf-mrc: the serial sampled sweep equals the sharded sampled sweep;
   selection is per set, so sharding must not change a count. *)
let sampled_mrc_matches_sharded g ~rate ~seed ~(got : Stack_dist.Sampled.t)
    packed =
  run "sampled mrc = sharded sampled sweep" (fun () ->
      let want =
        Stack_dist.Sampled.of_packed_parallel ~seed
          ~jobs:(jobs_for ~sets:g.sets) ~rate ~line_size:g.line_size
          ~sets:g.sets ~max_ways:g.max_ways packed
      in
      let fields s =
        [
          ("accesses", Stack_dist.Sampled.accesses s);
          ("sampled", Stack_dist.Sampled.sampled_accesses s);
          ("selected_sets", Stack_dist.Sampled.selected_sets s);
        ]
        @ Array.to_list
            (Array.mapi (fun a n -> (Printf.sprintf "misses@%d" a, n))
               (Stack_dist.Sampled.raw_miss_curve s))
      in
      Fields.first_difference (fields got) (fields want))

(* zipf-mrc: the sampled curve [est] stays within the soak's error bound
   of the exact curve. *)
let sampled_mrc_within_bound ~est ~sampled_accesses ~exact_mrc ~ways =
  run "sampled mrc error within Sample_diff.error_bound" (fun () ->
      let err = mean_abs_error ~est ~exact:exact_mrc ~ways in
      let bound = Check.Sample_diff.error_bound ~sampled_accesses in
      if err <= bound then None
      else Some (Printf.sprintf "error %.6f exceeds bound %.6f" err bound))

(* paper-eval: a routine replayed on a fresh system equals the pipeline's
   closed-form baseline. [packed] is the routine's trace. *)
let routine_matches_closed_form (p : Pipeline.t) ~proc packed =
  run (Printf.sprintf "%s: run_packed = Pipeline.run_standard" proc)
    (fun () ->
      match
        Sweep.standard ~cache:p.cache ~timing:Machine.Timing.default
          ~page_size:p.page_size ~tlb_entries:p.tlb_entries
          [ Pipeline.packed_trace_of p ~proc ]
      with
      | None -> Some "closed form unavailable for this geometry"
      | Some _ ->
          let got = System.run_packed (Pipeline.fresh_system p) packed in
          Fields.first_difference (Fields.sweepable got)
            (Fields.sweepable (Pipeline.run_standard p ~proc)))

(* Every timed pass of a run must produce the same simulated outputs. *)
let passes_agree renders =
  run "every timed pass gives the same outputs" (fun () ->
      match renders with
      | [] -> Some "no pass ran"
      | first :: rest ->
          if List.for_all (String.equal first) rest then None
          else Some "outputs differ between passes")
