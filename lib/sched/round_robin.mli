(** Round-robin multitasking over memory traces (paper Section 4.2).

    Jobs take turns on one simulated processor; a context switch happens
    every [quantum] instructions (the paper's x-axis, swept from 1 to 1M).
    The cache is physically shared, so with a standard mapping each job's
    lines are evicted by the others at a rate that depends on the quantum —
    the effect column mapping removes for the protected job.

    Context switches charge a fixed cycle cost and can optionally flush the
    TLB (an untagged TLB would require it; the default models an
    ASID-tagged TLB, so the cache-interference effect the paper plots is
    isolated from TLB noise). Cache contents always persist across
    switches.

    Jobs run as packed traces on the machine's batched replay loop: each
    slice is one {!Machine.System.replay_range} call over the accesses the
    gap column puts in the quantum, and a job's misses are the shared
    cache's miss-count delta across its slices. *)

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
  slices : int;  (** scheduling slices the job received *)
}

val cpi : job_stats -> float

type outcome = {
  per_job : job_stats list;
  switches : int;
  total_cycles : int;
}

val run_packed :
  ?flush_tlb_on_switch:bool ->
  ?switch_cycles:int ->
  system:Machine.System.t ->
  quantum:int ->
  Epoch.job list ->
  outcome
(** Defaults: TLB not flushed (tagged entries), [switch_cycles = 50]. [quantum]
    must be positive; it is measured in instructions ([gap]s included): a
    slice ends at the first access that brings its instructions to
    [quantum] or more. Jobs whose traces are exhausted drop out of the
    rotation; the run ends when all are done. The outcome equals replaying
    each slice access by access through {!Machine.System.access}. Build the
    jobs once and reuse them across runs: replay never mutates them. *)

val run :
  ?flush_tlb_on_switch:bool ->
  ?switch_cycles:int ->
  system:Machine.System.t ->
  quantum:int ->
  job list ->
  outcome
(** {!run_packed} over boxed traces, each converted with
    {!Memtrace.Packed.of_trace}. *)

val find_job : outcome -> string -> job_stats option
