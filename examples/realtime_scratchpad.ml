(* Columns as scratchpad for real-time predictability (paper Section 2.3).

   A FIR filter's coefficient table is the classic real-time resident: it is
   read on every tap of every sample, and a deadline analysis needs its
   access latency to be a constant, not a distribution. We pin it into one
   column (exclusive mapping + preload) and verify the strongest property a
   scratchpad offers: ZERO misses on the pinned region — under arbitrary
   interference — so every access takes exactly the same time.

   Run with: dune exec examples/realtime_scratchpad.exe *)

let () =
  let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 () in
  let program = Workloads.Kernels.fir ~taps:32 ~samples:512 in
  let t =
    Colcache.Pipeline.make ~init:Workloads.Kernels.init ~cache program
  in
  let trace = Colcache.Pipeline.trace_of t ~proc:"fir" in

  (* Interference: a co-resident DMA-like stream hammering memory. *)
  let noise =
    Memtrace.Synthetic.uniform_random ~seed:7 ~base:0x40000 ~span:65536
      ~count:30_000 ()
  in
  let mixed = Memtrace.Synthetic.interleave [ trace; noise ] ~quantum:16 in

  let run_with ~pinned =
    let system = Colcache.Pipeline.fresh_system t in
    if pinned then begin
      (* force the coefficient table into its own scratchpad column and keep
         every other tint out of that column *)
      let base = Layout.Address_map.base_of t.Colcache.Pipeline.address_map "coeffs" in
      Machine.System.pin_region system ~base ~size:(32 * 4)
        ~mask:(Cache.Bitmask.singleton 0)
        ~tint:(Vm.Tint.make "coeffs");
      Vm.Mapping.remap_tint
        (Machine.System.mapping system)
        Vm.Tint.default
        (Cache.Bitmask.of_list [ 1; 2; 3 ])
    end;
    let coeff_misses = ref 0 and coeff_accesses = ref 0 in
    let cache_stats = Cache.Sassoc.stats (Machine.System.cache system) in
    let packed = Memtrace.Packed.of_trace mixed in
    let n = Memtrace.Packed.length packed in
    let is_coeff i = Memtrace.Packed.var packed i = Some "coeffs" in
    (* replay each maximal run of coefficient (or other) accesses as one
       range, and charge a coefficient run's misses to the table *)
    let pos = ref 0 in
    while !pos < n do
      let coeff = is_coeff !pos in
      let stop = ref (!pos + 1) in
      while !stop < n && is_coeff !stop = coeff do
        incr stop
      done;
      let before = cache_stats.Cache.Stats.misses in
      ignore (Machine.System.replay_range system packed ~pos:!pos ~stop:!stop);
      if coeff then begin
        coeff_accesses := !coeff_accesses + (!stop - !pos);
        coeff_misses := !coeff_misses + cache_stats.Cache.Stats.misses - before
      end;
      pos := !stop
    done;
    (!coeff_accesses, !coeff_misses)
  in

  let accesses, misses_std = run_with ~pinned:false in
  let _, misses_pinned = run_with ~pinned:true in
  Format.printf "coefficient table: %d accesses under heavy interference@." accesses;
  Format.printf "  standard cache:  %d misses (latency varies)@." misses_std;
  Format.printf "  pinned column:   %d misses (every access identical)@."
    misses_pinned;
  assert (misses_pinned = 0);
  Format.printf
    "@.The pinned region is provably miss-free: the worst-case execution@.\
     time of the filter loop no longer depends on what else is running.@."
