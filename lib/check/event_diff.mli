(** Differential check for the event-driven timing core.

    Replays a {!Scenario} through two identical {!Machine.System}s: one
    access at a time through the blocking scalar path ([System.access],
    the oracle, which shares no code with the batched replay loop) and in
    batches through the event core ([run_packed_events], MSHRs + banked
    DRAM), with reconfiguration events applied to both in scenario order.
    After every batch and at the end, every functional count —
    hit/miss/writeback/eviction, three-C classes, fills per way, TLB and
    L2 counters, instructions, prefetches, final cache contents,
    reconfiguration costs — must be byte-identical; [cycles] is the one
    field never compared, because retiming is exactly what the event core
    is for. The event geometry (MLP, banks, row bytes, queue depth) is
    derived deterministically from the scenario so structural stalls, row
    conflicts and genuine overlap all occur without drawing from the
    soak's RNG streams.

    [bug = Some Event] plants the MSHR-merge mutation on the event side
    (see {!Oracle.bug}). *)

type divergence = {
  step : int;
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

val run_scenario : ?bug:Oracle.bug -> Scenario.t -> outcome
