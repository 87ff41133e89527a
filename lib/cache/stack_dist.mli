(** Single-pass LRU stack-distance simulation (Mattson et al., 1970).

    Under true LRU with a fixed set count, the contents of an [a]-way cache
    are always the top [a] entries of each set's recency stack — the
    inclusion property. One pass over a trace therefore yields, for {e every}
    associativity [1..max_ways] simultaneously:

    - exact miss counts: an access at stack depth [d] (0-indexed) hits in
      the [a]-way cache iff [d < a], so [misses a] is the tail mass of the
      depth histogram plus the cold and overflow accesses;
    - exact eviction counts: a line leaves the [a]-way cache exactly when it
      sinks from depth [a-1] to depth [a], so evictions are boundary
      crossings, counted as the stacks shift;
    - exact writeback counts: a line's dirtiness {e as a function of
      capacity} is an up-set [dirty in every a >= dirty_min]: a write dirties
      the line at all capacities, a read re-access at depth [d] reinstalls it
      clean in the caches that had missed ([a <= d]), and crossing boundary
      [a] while [dirty_min <= a] is precisely one writeback of the [a]-way
      cache (after which the line is clean there).

    The numbers agree field-for-field with {!Sassoc} under
    [policy = Lru, classify = false] for each associativity — the
    [Check.Mrc_diff] differential driver and the mutation tests pin this.
    The three-C classification and [fills_per_way] are not derivable from
    stack distances (way choice is history-dependent); {!stats} reports them
    as zeros, exactly like a non-classifying [Sassoc] for the three-C
    fields.

    Stacks are depth-truncated at [max_ways]: re-accesses deeper than that
    land in a single overflow bucket (they miss at every tracked
    associativity), keeping the per-access cost O(max_ways). A
    {!Line_set} of every line ever referenced tells those overflows from
    cold misses; it is asked once per stack miss, never on a stack hit.

    Every packed feed below first decodes its trace's whole kind column
    with {!Memtrace.Packed.check_kinds}: a byte outside 0-2 raises
    [Invalid_argument] before any access is counted. *)

type t

val create :
  ?translate:(int -> int) -> line_size:int -> sets:int -> max_ways:int ->
  unit -> t
(** [line_size] and [sets] must be powers of two, [max_ways >= 1].
    [translate] maps each address before line extraction (a physical frame
    placement, e.g. {!Layout.Page_coloring}'s); it must preserve
    line-in-page containment, which every page-granular frame map does. *)

val max_ways : t -> int
val sets : t -> int

val access : t -> kind:Memtrace.Access.kind -> int -> unit
(** Record one reference. [Write] dirties the line at every associativity;
    [Read]/[Ifetch] install clean. *)

val access_traced : t -> kind:Memtrace.Access.kind -> ways:int -> int -> int
(** Like {!access}, but additionally reports what a [ways]-way cache saw on
    this one reference: bit 0 set iff it hit (stack depth [< ways]), bit 1
    set iff it wrote back a dirty victim (a boundary-[ways] crossing with
    [dirty_min <= ways] during this access's shift). Summing the reported
    bits over a run reproduces {!hits} / {!writebacks} at [ways] exactly;
    the per-access timing of the closed-form sweep evaluators is built on
    this. [ways] must lie in [1..max_ways]. *)

val access_packed : t -> Memtrace.Packed.t -> unit
(** Replay a whole packed trace through {!access} without boxing and
    without allocating, once its lines have been seen. *)

val preload : t -> int -> unit
(** Install the line holding the address clean and most-recently-used,
    without counting an access (the shift of displaced lines still counts
    evictions/writebacks, as {!Sassoc.access} during a preload would). Used
    to reproduce scratchpad pinning's warm start before {!reset_counts}. *)

val reset_counts : t -> unit
(** Zero every counter, keeping contents and the cold-line memory — the
    stack-distance analogue of snapshotting statistics before a run. *)

(** {2 Readings}

    All [ways] arguments must lie in [1..max_ways]. *)

val accesses : t -> int

val cold_misses : t -> int
(** First-touch accesses: infinite stack distance, a miss at every
    associativity (and at any capacity). *)

val overflows : t -> int
(** Re-accesses beyond the tracked depth: distance [>= max_ways], a miss at
    every tracked associativity. *)

val distinct_lines : t -> int
(** Lines ever referenced (the seen-line set's size) — with the stacks,
    the engine's memory, which the sampled engine's fixed budget bounds. *)

val histogram : t -> int array
(** [h.(d)] = re-accesses at exact stack depth [d], [0 <= d < max_ways],
    aggregated over sets. [accesses = cold + overflows + sum h]. *)

val misses : t -> ways:int -> int
val hits : t -> ways:int -> int
val evictions : t -> ways:int -> int
val writebacks : t -> ways:int -> int

val miss_curve : t -> int array
(** [c.(a)] = [misses ~ways:a] for [a] in [1..max_ways]; [c.(0)] =
    [accesses] (no cache at all misses everything). Length
    [max_ways + 1]. *)

val mrc : t -> float array
(** {!miss_curve} normalized by {!accesses} — the miss-ratio curve. All
    zeros when the engine saw no accesses. *)

val stats : t -> ways:int -> Stats.t
(** The {!Stats.t} an [ways]-way non-classifying {!Sassoc} LRU cache would
    report after the same accesses: accesses/hits/misses/evictions/
    writebacks exact, three-C fields and [fills_per_way] zero. *)

(** {2 Set-sharded parallel sweeps}

    LRU stack distances are exactly independent per cache set: an access
    touches only the recency stack of the set it maps to, and every counter
    is a sum of per-set contributions. Partitioning the set index space into
    [shards] shards (shard [s] owns the sets with [set mod shards = s])
    makes the Mattson pass embarrassingly parallel, and because merging is
    pure addition of disjoint per-set counters — including the up-set
    dirtiness writeback accounting and the cold/overflow split (a line
    belongs to exactly one set, so the shards' seen lines are disjoint;
    their 32-line blocks are not, and the merge ORs them) — the merged
    readings are {e byte-identical} to the serial engine's for any shard
    count. The [Check.Shard_diff] differential and the jobs-invariance
    property pin this. *)

val access_packed_sharded : t -> shards:int -> shard:int -> Memtrace.Packed.t -> unit
(** Replay only the accesses whose (translated) set belongs to [shard] of
    [shards]; everything else is skipped without counting. Feeding one
    engine per shard with the same trace partitions the work exactly.
    Raises [Invalid_argument] unless [1 <= shards <= sets] and
    [0 <= shard < shards]. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s counters into [dst] and adopts
    [src]'s per-set stacks and cold-line memory, leaving [dst] a fully
    functional engine indistinguishable from one fed both engines' access
    streams serially. Raises [Invalid_argument] when the geometries differ
    or when both engines have touched the same set — merging is only exact
    over disjoint set ownership, which the sharded feed guarantees. *)

val of_packed_parallel :
  ?translate:(int -> int) ->
  ?on_shard:(shard:int -> accesses:int -> unit) ->
  jobs:int ->
  line_size:int ->
  sets:int ->
  max_ways:int ->
  Memtrace.Packed.t ->
  t
(** Sweep a packed trace with [jobs] worker domains, one set shard each,
    each streaming chunked {!Memtrace.Packed.sub} views (mmap'd traces
    stay out of core), then merge — the result is byte-identical to a
    serial {!access_packed} sweep for any [jobs]. [on_shard] is called
    once per shard at merge time with the accesses that shard's engine
    counted (the per-domain engine work: each shard processes roughly
    [1/jobs] of the trace). Raises [Invalid_argument] unless
    [1 <= jobs <= sets]. *)

(** {2 Per-tag curves}

    One engine per interned variable tag of a packed trace, each fed only
    its own tag's accesses: the per-variable miss-ratio curves predict
    exactly how each variable behaves when given [a] columns of its own
    (its column group is an isolated LRU cache with the same sets), which
    is what MRC-driven column allocation consumes. *)

val per_tag_of_packed :
  ?translate:(int -> int) -> line_size:int -> sets:int -> max_ways:int ->
  Memtrace.Packed.t -> t * (string * t) array
(** One pass: returns the global engine over every access, and one engine
    per entry of {!Memtrace.Packed.var_table} (in table order) over that
    tag's accesses alone. Untagged accesses reach only the global engine. *)

(** {2 Sampled stack distances}

    SHARDS-style spatially-hashed sampling (Waldspurger et al., FAST '15)
    adapted to the set-associative engine: instead of hashing individual
    lines — which would punch holes in each set's recency stack and make
    sampled depths meaningless at small associativity — whole {e sets} are
    the sampling unit. Each set's index is hashed once (seeded splitmix64);
    a set is selected iff its hash lands below the threshold [T] (initially
    the requested rate), every selected set is simulated {e exactly} by its
    own single-set Mattson engine, and per-distance counts scale by
    [n_sets / selected] — sets are symmetric interleaved slices of the
    address space, so the selected ones are an unbiased spatial
    subpopulation.

    Selection is a prefix of the sets ordered by (hash, set index), so the
    sample locations at a lower rate are a subset of those at any higher
    rate (threshold monotonicity), and identical inputs always produce
    identical histograms. The fixed-budget variant caps distinct sampled
    lines: exceeding [budget] evicts the selected set with the largest hash
    and lowers the effective [T] to that hash, the evicted set's whole
    contribution leaving the estimate — rescaling on eviction at set
    granularity. Eviction never shrinks the selection below [min_sets]
    (the variance floor wins; past it the budget is best-effort). At [rate = 1.0] every set is selected and every [*_est]
    reading equals the exact engine's, which the property suite pins.

    Accuracy is asserted continuously by the [Check.Sample_diff]
    differential driver in the soak rotation: mean absolute miss-ratio
    error of {!Sampled.mrc_est} against the exact {!mrc} within a
    sample-size-aware bound, with the forgotten-rescale mutation
    ([--inject-bug sample]) caught. *)
module Sampled : sig
  type t

  val create :
    ?translate:(int -> int) ->
    ?seed:int ->
    ?min_sets:int ->
    ?budget:int ->
    rate:float ->
    line_size:int ->
    sets:int ->
    max_ways:int ->
    unit ->
    t
  (** [rate] must lie in (0, 1]; geometry constraints as {!create}.
      [seed] (default 0) keys the set hash. [min_sets] (default 1) floors
      the selection — the [min_sets] smallest-hash sets are kept even when
      the rate selects fewer, which tames variance on tiny geometries.
      [budget] caps distinct sampled lines as described above. *)

  val access : t -> kind:Memtrace.Access.kind -> int -> unit
  val access_packed : t -> Memtrace.Packed.t -> unit

  val access_packed_sharded :
    t -> shards:int -> shard:int -> Memtrace.Packed.t -> unit
  (** Sharded feed, as the exact engine's: selection is a per-set property,
      so SHARDS sampling composes with set sharding and the merged readings
      are byte-identical to a serial sampled sweep. [offered] counts only
      the owned shard's accesses, so merged totals are exact. Raises
      [Invalid_argument] for budget engines (the largest-hash eviction is a
      global order-dependent decision that sharding would reorder) and on
      shard bounds as {!Stack_dist.access_packed_sharded}. *)

  val merge_into : t -> t -> unit
  (** Merge a shard's sampled engine, entry by selected entry (the per-set
      engines merge via the exact {!Stack_dist.merge_into}). Raises
      [Invalid_argument] for budget engines, mismatched geometries, or
      selections that differ (seed or rate mismatch). *)

  val of_packed_parallel :
    ?translate:(int -> int) ->
    ?seed:int ->
    ?min_sets:int ->
    jobs:int ->
    rate:float ->
    line_size:int ->
    sets:int ->
    max_ways:int ->
    Memtrace.Packed.t ->
    t
  (** Parallel sampled sweep: [jobs] worker domains over set shards, merged
      — byte-identical to a serial sampled sweep for any [jobs]. No
      [budget] (see {!access_packed_sharded}); raises [Invalid_argument]
      unless [1 <= jobs <= sets]. *)

  val max_ways : t -> int
  val sets : t -> int

  val rate : t -> float
  (** The requested (nominal) rate. *)

  val threshold : t -> float
  (** The effective threshold [T]: the rate, lowered by budget evictions. *)

  val selected_sets : t -> int
  val effective_rate : t -> float
  (** [selected_sets / sets] — what the estimates actually scale by. *)

  val scale : t -> float
  (** [sets / selected_sets], the count multiplier [1/effective_rate]. *)

  val set_evictions : t -> int
  (** Budget-driven set evictions so far. *)

  val would_sample : t -> int -> bool
  (** Whether an access to this address would currently be sampled. *)

  val accesses : t -> int
  (** All accesses offered, sampled or not. *)

  val sampled_accesses : t -> int
  val distinct_sampled_lines : t -> int

  val raw_miss_curve : t -> int array
  (** Unscaled misses over the selected sets only, shaped like
      {!miss_curve}. *)

  val miss_curve_est : t -> float array
  (** {!raw_miss_curve} × {!scale} — the estimated full-trace miss curve. *)

  val mrc_est : t -> float array
  (** Estimated miss-ratio curve: {!miss_curve_est} over scaled sampled
      accesses (index 0 is 1 by construction; all zeros when nothing was
      sampled). Compare against the exact engine's {!mrc}. *)

  val misses_est : t -> ways:int -> float
  val evictions_est : t -> ways:int -> float
  val writebacks_est : t -> ways:int -> float
  (** Scaled per-associativity estimates; [ways] must lie in
      [1..max_ways]. *)
end

(** {2 Incremental sliding-window MRCs}

    A rolling miss-ratio curve over (approximately) the last [window]
    accesses, with O(1) amortized cost per access: the window is bucketed
    into [epochs] equal sub-histograms kept in a ring, so retirement drops
    whole epoch buckets instead of unwinding individual accesses (which a
    Mattson engine cannot do). The live engine accumulates the current
    epoch; a full epoch is snapshotted into the slot holding the oldest one
    and the counters reset, stacks and cold-line memory persisting — depths
    stay measured against true recency, only the counts age out (a line
    first seen in a retired epoch re-counts as overflow, not cold: the
    standard rolling approximation). Readings cover the live epochs plus
    the partial one — between [window] and [window + window/epochs - 1]
    accesses. While the total observed is at most [window], nothing has
    retired and every reading equals the one-shot engine's exactly; the
    property suite pins both this and that retirement never resurrects
    retired counts. This is what {!Layout.Mrc_alloc}'s incremental
    allocator consumes per tenant. *)
module Windowed : sig
  type t

  val create :
    ?translate:(int -> int) ->
    window:int ->
    epochs:int ->
    line_size:int ->
    sets:int ->
    max_ways:int ->
    unit ->
    t
  (** Geometry constraints as {!Stack_dist.create}. Raises
      [Invalid_argument] unless [window >= 1], [epochs >= 1] and [window]
      is a multiple of [epochs]. *)

  val observe : t -> kind:Memtrace.Access.kind -> int -> unit
  val observe_packed : t -> Memtrace.Packed.t -> unit

  val window : t -> int
  val epochs : t -> int
  val epoch_length : t -> int
  val max_ways : t -> int
  val sets : t -> int

  val retired_epochs : t -> int
  (** Whole epochs aged out of the window so far. *)

  val accesses_in_window : t -> int
  (** Accesses the current readings cover: live epochs plus the partial
      one, never more than [window + epoch_length - 1]. *)

  val miss_curve_now : t -> int array
  (** Shaped like {!Stack_dist.miss_curve}, over the current window. *)

  val mrc_now : t -> float array
  (** {!miss_curve_now} normalized by {!accesses_in_window}; all zeros
      when the window is empty. *)
end
