(** The sampled-vs-exact stack-distance differential runner.

    Where {!Mrc_diff} pins the exact {!Cache.Stack_dist} engine against
    exact per-associativity simulation, this driver pins the SHARDS-style
    {!Cache.Stack_dist.Sampled} estimator against the exact engine on the
    same access stream: the estimated miss-ratio curve's mean absolute
    error over associativities [1..W] must stay within a sample-size-aware
    bound scaled to the fraction of sets selected, the curve's pinned index 0 must be
    exactly 1, and a second sampled engine at rate 1.0 must agree with the
    exact engine reading-for-reading (full selection is not allowed to
    approximate). Reconfiguration events are irrelevant, as in
    {!Mrc_diff}. *)

val nominal_rate : float
(** The rate the soak runs at (0.01, the acceptance bar's). *)

val min_sets : int
(** Selection floor: the [min_sets] smallest-hash sets are always kept, so
    the tiny soak geometries retain enough sampled population. *)

val hash_seed : int
(** The fixed selection-hash seed, so every soak run (and {!Shard_diff}'s
    sampled twin engines) samples the same sets for the same geometry. *)

val error_bound : sampled_accesses:int -> float
(** The bound on mean absolute miss-ratio error where half the sets are
    selected: a calibrated floor plus a [1/sqrt(sampled_accesses)] noise
    term, so scenarios whose selected sets saw almost no traffic are held
    only to what their sample size supports. {!run_scenario} scales it by
    [sqrt (2 (1 - f))] for a selected fraction [f] of the sets (1.22 at a
    quarter), the finite-population factor of an estimate over a sample of
    the sets drawn without replacement. *)

type divergence = {
  step : int;
      (** always the event count: the estimator is compared only after the
          full replay *)
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

val run_scenario : ?bug:Oracle.bug -> Scenario.t -> outcome
(** [bug] plants a defect for mutation-testing the harness:
    {!Oracle.Sample} drops the [1/rate] rescale from the estimated curve's
    numerator while the normalizer keeps it, deflating the whole curve by
    the effective sampling rate (other bugs have no effect here). *)
