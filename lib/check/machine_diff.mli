(** The machine-level differential runner.

    Where {!Diff} pins the cache + VM layers against naive models, this
    driver pins the {e whole machine}'s batched replay against its scalar
    reference: the same {!Scenario} is replayed on two identical
    {!Machine.System.t}s — one access at a time through {!Machine.System.access},
    and in packed batches through {!Machine.System.run_packed_requests}
    (flushed at every reconfiguration event), with request windows cut
    from each batch by a shape derived from the scenario (no RNG draws).
    After each batch and at the end, the full {!Machine.Run_stats.t} —
    instructions, cycles, TLB counters, every cache statistic — plus final
    cache contents and the TLB-residency-dependent reconfiguration costs
    must agree exactly, and after each batch so must the latency of every
    window: the scalar side reads its cycle count as each window opens and
    closes. This is what makes the batched loop's own TLB lookups and LRU
    probes and its derived cycle count trustworthy: any skipped TLB touch,
    stale mask, unstamped way or miscounted cycle shows up as a divergence
    here. *)

type divergence = {
  step : int;
      (** index of the event at which the divergence was observed; equal to
          the event count when only the final-state comparison differs *)
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

val run_scenario : ?bug:Oracle.bug -> Scenario.t -> outcome
(** [bug] plants a defect for mutation-testing the harness:
    {!Oracle.Machine_fast_path} zeroes every gap in the batched side's
    packed batches (other bugs have no effect here — they live in the
    {!Oracle}). *)
