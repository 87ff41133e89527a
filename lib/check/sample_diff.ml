module Sassoc = Cache.Sassoc
module Stack_dist = Cache.Stack_dist

type divergence = {
  step : int;
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

exception Found of string

let failf fmt = Format.kasprintf (fun s -> raise (Found s)) fmt

(* The configuration the soak asserts continuously: the nominal 1% rate of
   the acceptance bar, floored at four sets so the tiny scenario geometries
   (1..16 sets) keep at least a quarter of their sets — below four sets the
   engine is simply exact. The hash seed is fixed so every soak run samples
   the same sets for the same geometry. *)
let nominal_rate = 0.01
let min_sets = 4
let hash_seed = 0x5eed

(* Sample-size-aware bound on the mean absolute miss-ratio error over
   associativities 1..W: a floor for the bias-free spatial split plus a
   1/sqrt(n) noise term, calibrated against the clean 250k soak with
   headroom, while staying far below the ~(1 - effective_rate) x
   miss-ratio deflation the planted rescale bug produces on miss-heavy
   scenarios. It holds where half the sets are selected (4 of 8 in the
   soak): over 434k such scenarios the largest error reached 0.98 of it. *)
let error_bound ~sampled_accesses =
  0.08 +. (1.5 /. sqrt (float_of_int (max 1 sampled_accesses)))

(* The estimate is a ratio over the selected sets, and the exact curve is
   the traffic-weighted mix of that ratio and the unselected sets' own:
   est - exact = (1 - share) x (est - unselected). Sampling without
   replacement a fraction f of the sets, its spread therefore carries the
   finite-population factor sqrt(1 - f), relative to sqrt(1/2) at the
   half-selected calibration point. With the four-set floor, 16 sets
   select a quarter and their errors run 1.22x larger, as the factor
   predicts (1.21x measured over 866k scenarios; the bound alone was
   exceeded 11 times there, all at a quarter selected, and never with the
   factor). *)
let selection_factor ~selected_fraction =
  sqrt (2. *. (1. -. selected_fraction))

let accesses_of (sc : Scenario.t) =
  List.filter_map
    (function Scenario.Access a -> Some a | _ -> None)
    sc.Scenario.events

let feed engine accesses =
  List.iter
    (fun (a : Memtrace.Access.t) ->
      Stack_dist.Sampled.access engine ~kind:a.Memtrace.Access.kind
        a.Memtrace.Access.addr)
    accesses

let run_scenario ?bug (sc : Scenario.t) =
  let cfg = sc.Scenario.cache in
  let w = cfg.Sassoc.ways in
  let accesses = accesses_of sc in
  let exact =
    Stack_dist.create ~line_size:cfg.Sassoc.line_size ~sets:cfg.Sassoc.sets
      ~max_ways:w ()
  in
  List.iter
    (fun (a : Memtrace.Access.t) ->
      Stack_dist.access exact ~kind:a.Memtrace.Access.kind
        a.Memtrace.Access.addr)
    accesses;
  let sampled =
    Stack_dist.Sampled.create ~seed:hash_seed ~min_sets ~rate:nominal_rate
      ~line_size:cfg.Sassoc.line_size ~sets:cfg.Sassoc.sets ~max_ways:w ()
  in
  feed sampled accesses;
  try
    let n_sampled = Stack_dist.Sampled.sampled_accesses sampled in
    (* The planted sample bug lives here, in the estimator: the per-distance
       counts skip the 1/rate rescale while the normalizer keeps it, so the
       estimated curve deflates by the effective sampling rate. *)
    let est =
      match bug with
      | Some Oracle.Sample ->
          let raw = Stack_dist.Sampled.raw_miss_curve sampled in
          let denom =
            float_of_int n_sampled *. Stack_dist.Sampled.scale sampled
          in
          if denom = 0. then Array.map (fun _ -> 0.) raw
          else Array.map (fun m -> float_of_int m /. denom) raw
      | _ -> Stack_dist.Sampled.mrc_est sampled
    in
    let mrc = Stack_dist.mrc exact in
    if Array.length est <> w + 1 then
      failf "mrc_est has length %d, expected %d" (Array.length est) (w + 1);
    (* Index 0 is pinned by construction: scaled sampled misses-with-no-cache
       over scaled sampled accesses is exactly 1 — unless a rescale was
       forgotten on one side of the ratio. *)
    if n_sampled > 0 && abs_float (est.(0) -. 1.0) > 1e-9 then
      failf "mrc_est.(0) = %.6f, expected 1.0 (forgotten rescale?)" est.(0);
    (* The headline assertion: mean absolute miss-ratio error over the
       associativities, within the sample-size-aware bound scaled to the
       selected fraction. Vacuous when nothing was sampled — the estimator
       has no data and the bound's noise term exceeds any possible error.
       With every set selected the factor is 0 and the scale exactly 1, so
       the estimate must equal the exact curve bit for bit. *)
    let rate = Stack_dist.Sampled.effective_rate sampled in
    if n_sampled > 0 then begin
      let err = ref 0. in
      for a = 1 to w do
        err := !err +. abs_float (est.(a) -. mrc.(a))
      done;
      let mean = !err /. float_of_int w in
      let bound =
        selection_factor ~selected_fraction:rate
        *. error_bound ~sampled_accesses:n_sampled
      in
      if mean > bound then
        failf
          "sampled mrc error %.4f exceeds bound %.4f (rate %.3f, %d/%d sets, \
           %d of %d accesses sampled)"
          mean bound rate
          (Stack_dist.Sampled.selected_sets sampled)
          cfg.Sassoc.sets n_sampled (List.length accesses)
    end;
    (* At rate 1.0 every set is selected and the sampled engine must agree
       with the exact one reading-for-reading — sampling with nothing left
       out is not allowed to approximate. *)
    let full =
      Stack_dist.Sampled.create ~seed:hash_seed ~rate:1.0
        ~line_size:cfg.Sassoc.line_size ~sets:cfg.Sassoc.sets ~max_ways:w ()
    in
    feed full accesses;
    if Stack_dist.Sampled.selected_sets full <> cfg.Sassoc.sets then
      failf "rate 1.0 selected %d of %d sets"
        (Stack_dist.Sampled.selected_sets full)
        cfg.Sassoc.sets;
    if Stack_dist.Sampled.sampled_accesses full <> Stack_dist.accesses exact
    then
      failf "rate 1.0 sampled %d of %d accesses"
        (Stack_dist.Sampled.sampled_accesses full)
        (Stack_dist.accesses exact);
    for ways = 1 to w do
      let pair name est_v exact_v =
        if est_v <> float_of_int exact_v then
          failf "rate 1.0 %d-way %s differ: sampled %.1f, exact %d" ways name
            est_v exact_v
      in
      pair "misses"
        (Stack_dist.Sampled.misses_est full ~ways)
        (Stack_dist.misses exact ~ways);
      pair "evictions"
        (Stack_dist.Sampled.evictions_est full ~ways)
        (Stack_dist.evictions exact ~ways);
      pair "writebacks"
        (Stack_dist.Sampled.writebacks_est full ~ways)
        (Stack_dist.writebacks exact ~ways)
    done;
    Agree
  with Found detail ->
    Diverge { step = List.length sc.Scenario.events; detail }
