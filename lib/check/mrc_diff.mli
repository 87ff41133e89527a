(** The stack-distance differential runner.

    Where {!Diff} pins the cache + VM layers against naive models, this
    driver pins the single-pass {!Cache.Stack_dist} engine against exact
    simulation: the access stream of a {!Scenario} (reconfiguration events
    are irrelevant — the engine models an unpartitioned cache) is fed once
    through a stack-distance engine sized at the scenario's way count [W],
    and then replayed through [W] fresh non-classifying LRU {!Cache.Sassoc}
    caches, one per associativity [1..W], with the full column mask. Every
    associativity's accesses, hits, misses, evictions and writebacks must
    agree exactly — the Mattson inclusion property made executable. This is
    what lets the sweep experiments read whole configuration curves out of
    one pass. The engine's cold misses and distinct lines must also equal
    the scenario's distinct lines, counted naively: the associativity
    comparison sees only cold + overflow, so it cannot tell a swapped
    split. *)

type divergence = {
  step : int;
      (** always the event count: the engine is compared only after the full
          replay (a per-associativity curve has no per-event observable) *)
  detail : string;
}

type outcome =
  | Agree
  | Diverge of divergence

val run_scenario : ?bug:Oracle.bug -> Scenario.t -> outcome
(** [bug] plants a defect for mutation-testing the harness: {!Oracle.Mrc}
    demotes writes to reads on the stack-distance side, losing dirty bits
    (other bugs have no effect here — they live in the {!Oracle}). *)
