module Packed = Memtrace.Packed
module System = Machine.System

type job = {
  name : string;
  trace : Memtrace.Trace.t;
}

type job_stats = {
  job : string;
  instructions : int;
  cycles : int;
  memory_accesses : int;
  misses : int;
  slices : int;
}

let cpi s =
  if s.instructions = 0 then 0.
  else float_of_int s.cycles /. float_of_int s.instructions

type outcome = {
  per_job : job_stats list;
  switches : int;
  total_cycles : int;
}

type running = {
  def : Epoch.job;
  mutable pos : int;
  mutable instructions : int;
  mutable cycles : int;
  mutable misses : int;
  mutable slices : int;
}

(* The end of the slice that starts at [pos]: the access at which the
   slice's instructions ([gap + 1] per access) first reach [quantum], or
   the end of the trace. *)
let slice_stop (p : Packed.t) ~pos ~quantum =
  let gaps = Packed.raw_gaps p in
  let n = Packed.length p in
  let stop = ref pos and insns = ref 0 in
  while !stop < n && !insns < quantum do
    insns := !insns + Bigarray.Array1.unsafe_get gaps !stop + 1;
    incr stop
  done;
  (!stop, !insns)

let run_packed ?(flush_tlb_on_switch = false) ?(switch_cycles = 50) ~system
    ~quantum (jobs : Epoch.job list) =
  if quantum <= 0 then invalid_arg "Round_robin.run: quantum must be positive";
  if jobs = [] then invalid_arg "Round_robin.run: no jobs";
  let arr =
    Array.of_list
      (List.map
         (fun def ->
           { def; pos = 0; instructions = 0; cycles = 0; misses = 0; slices = 0 })
         jobs)
  in
  let n = Array.length arr in
  let done_ j = j.pos >= Packed.length j.def.Epoch.packed in
  let switches = ref 0 in
  let total_cycles = ref 0 in
  let cache_stats = Cache.Sassoc.stats (System.cache system) in
  let turn = ref 0 in
  let last_job = ref (-1) in
  while not (Array.for_all done_ arr) do
    let idx = !turn mod n in
    let j = arr.(idx) in
    incr turn;
    if not (done_ j) then begin
      j.slices <- j.slices + 1;
      (* A switch happens when a different job gets the processor; its cost
         is charged to system time, not to the incoming job. *)
      if !last_job >= 0 && !last_job <> idx then begin
        incr switches;
        if flush_tlb_on_switch then System.flush_tlb system;
        total_cycles := !total_cycles + switch_cycles
      end;
      last_job := idx;
      let p = j.def.Epoch.packed in
      let stop, insns = slice_stop p ~pos:j.pos ~quantum in
      let misses_before = cache_stats.Cache.Stats.misses in
      let c = System.replay_range system p ~pos:j.pos ~stop in
      j.pos <- stop;
      j.instructions <- j.instructions + insns;
      j.cycles <- j.cycles + c;
      j.misses <- j.misses + (cache_stats.Cache.Stats.misses - misses_before);
      total_cycles := !total_cycles + c
    end
  done;
  {
    per_job =
      Array.to_list
        (Array.map
           (fun j ->
             {
               job = j.def.Epoch.name;
               instructions = j.instructions;
               cycles = j.cycles;
               memory_accesses = j.pos;
               misses = j.misses;
               slices = j.slices;
             })
           arr);
    switches = !switches;
    total_cycles = !total_cycles;
  }

let run ?flush_tlb_on_switch ?switch_cycles ~system ~quantum jobs =
  run_packed ?flush_tlb_on_switch ?switch_cycles ~system ~quantum
    (List.map
       (fun j -> { Epoch.name = j.name; packed = Packed.of_trace j.trace })
       jobs)

let find_job outcome name = List.find_opt (fun s -> s.job = name) outcome.per_job
