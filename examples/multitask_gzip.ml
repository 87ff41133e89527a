(* Protecting a critical job in a multitasking mix (paper Section 4.2).

   Three LZ77 compression jobs share one processor and one 16 KB cache. Job
   A is latency-critical. With a standard cache its CPI depends on the
   scheduler's time quantum — B and C evict its lines at a rate A cannot
   control. Giving A six of the eight columns makes its CPI flat across
   three orders of magnitude of quantum.

   Run with: dune exec examples/multitask_gzip.exe *)

let quanta = [ 16; 256; 4096; 65536; 1048576 ]

(* Built once, packed: every run replays the same three jobs. *)
let jobs =
  List.map
    (fun (name, seed, base) ->
      {
        Sched.Epoch.name;
        packed = Workloads.Lz77.packed_trace ~seed ~input_len:8192 ~base ();
      })
    [ ("A", 1, 0x000000); ("B", 2, 0x100000); ("C", 3, 0x200000) ]

let cpi_of_job_a ~mapped ~quantum =
  let cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:16384 ~ways:8 () in
  let timing =
    { Machine.Timing.default with Machine.Timing.miss_penalty = 50 }
  in
  let system =
    Machine.System.create (Machine.System.config ~timing ~page_size:1024 cache)
  in
  if mapped then begin
    (* one retint of job A's address space + two tint-table writes: that is
       the entire cost of protecting the critical job *)
    let mapping = Machine.System.mapping system in
    let job_a = Vm.Tint.make "jobA" in
    ignore (Vm.Mapping.retint_region mapping ~base:0 ~size:0x100000 job_a);
    Vm.Mapping.remap_tint mapping job_a (Cache.Bitmask.range ~lo:0 ~hi:5);
    Vm.Mapping.remap_tint mapping Vm.Tint.default
      (Cache.Bitmask.range ~lo:6 ~hi:7)
  end;
  let outcome = Sched.Round_robin.run_packed ~system ~quantum jobs in
  match Sched.Round_robin.find_job outcome "A" with
  | Some s -> Sched.Round_robin.cpi s
  | None -> assert false

let () =
  Format.printf "job A footprint: %d bytes; cache: 16384 bytes@.@."
    Workloads.Lz77.footprint_bytes;
  Format.printf "%-10s %12s %12s@." "quantum" "standard" "mapped";
  let spread points =
    List.fold_left max 0. points -. List.fold_left min infinity points
  in
  let std_points = ref [] and mapped_points = ref [] in
  List.iter
    (fun quantum ->
      let std = cpi_of_job_a ~mapped:false ~quantum in
      let mapped = cpi_of_job_a ~mapped:true ~quantum in
      std_points := std :: !std_points;
      mapped_points := mapped :: !mapped_points;
      Format.printf "%-10d %12.3f %12.3f@." quantum std mapped)
    quanta;
  Format.printf
    "@.CPI spread across quanta — standard: %.3f, mapped: %.3f@."
    (spread !std_points) (spread !mapped_points);
  Format.printf
    "The mapped job is both faster at small quanta and far more predictable.@."
