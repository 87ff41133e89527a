(** The whole simulated machine: core + column cache + TLB + scratchpad.

    A {!t} owns a column cache (a {!Cache.Sassoc.t} whose replacement mask
    comes from the {!Vm.Mapping.t} on every access), an optional set of
    dedicated scratchpad SRAM regions, and the timing model. Replaying a
    trace yields instruction and cycle counts, hence CPI.

    Two ways to get scratchpad behaviour, matching the paper:
    - {!add_scratchpad}: a dedicated SRAM address region (fixed hardware
      partition, the Panda-style baseline);
    - {!pin_region}: column-cache emulation — the region is re-tinted to an
      exclusive set of columns and preloaded, after which it behaves exactly
      like scratchpad (Section 2.3). *)

type config = {
  cache : Cache.Sassoc.config;
  l2 : Cache.Sassoc.config option;
      (** optional unified second level; column masks govern L1 only, L2 is
          a plain set-associative cache *)
  timing : Timing.t;
  page_size : int;
  tlb_entries : int;
}

val config :
  ?timing:Timing.t -> ?page_size:int -> ?tlb_entries:int ->
  ?l2:Cache.Sassoc.config ->
  Cache.Sassoc.config -> config
(** Defaults: {!Timing.default}, 256-byte pages (small, embedded-style, and
    fine-grained enough to tint individual arrays), 32 TLB entries, no
    L2. *)

type t

val create : config -> t
val mapping : t -> Vm.Mapping.t
val cache : t -> Cache.Sassoc.t
val l2_cache : t -> Cache.Sassoc.t option
val timing : t -> Timing.t
val page_size : t -> int

val add_scratchpad : t -> base:int -> size:int -> unit
(** Declare a dedicated SRAM region; accesses inside it bypass cache and TLB
    at {!Timing.t.scratchpad_cycles}. Regions must not overlap. *)

val in_scratchpad : t -> int -> bool
val scratchpad_bytes : t -> int

val set_streaming : t -> Vm.Tint.t -> unit
(** Mark a tint as streaming: on every L1 miss under it, the next line is
    prefetched into the same columns (paper Section 2's "separate prefetch
    buffer … within the general cache"). The prefetch is overlapped with the
    demand fetch and stays inside the tint's columns, so it cannot pollute
    other partitions; it is skipped when the next line crosses into a page
    with a different mask. *)

val clear_streaming : t -> Vm.Tint.t -> unit
val is_streaming : t -> Vm.Tint.t -> bool

val set_frame_map : t -> Vm.Frame_map.t -> unit
(** Install a virtual→physical mapping: from now on the cache indexes
    physical addresses ({!Vm.Frame_map.translate} applied per access), which
    is what page coloring manipulates. Tints, scratchpad and uncached
    regions keep operating on virtual addresses. *)

val frame_map : t -> Vm.Frame_map.t option

val add_uncached : t -> base:int -> size:int -> unit
(** Declare a region that bypasses the cache entirely (data that fits
    nowhere on-chip when the whole cache is configured as scratchpad);
    accesses cost {!Timing.t.uncached_cycles}. Must not overlap scratchpad
    or other uncached regions. *)

val in_uncached : t -> int -> bool

val pin_region : t -> base:int -> size:int -> mask:Cache.Bitmask.t -> tint:Vm.Tint.t -> unit
(** Column-as-scratchpad: re-tint [base,base+size) to [tint], map [tint]
    exclusively to [mask]'s columns, and preload every line. Raises
    [Invalid_argument] if the region is larger than the chosen columns'
    capacity — such a region cannot behave as scratchpad (Section 3.1,
    step 1). Note: this does not remove [mask]'s columns from other tints;
    the layout pass is responsible for exclusivity. *)

val preload : t -> base:int -> size:int -> unit
(** Touch every line of the region (setup; charges no simulated cycles). *)

val charge_cycles : t -> int -> unit
(** Add setup cost (e.g. explicit scratchpad copy-in) to simulated time.
    Counted in the next [run]'s delta. Negative amounts are rejected. *)

val access : t -> Memtrace.Access.t -> int
(** Execute one access; returns the cycles it consumed (including [gap]
    instruction cycles). This is the scalar reference path: it shares no
    code with the batched replay loop beyond the cache and TLB themselves,
    and the machine-level differentials compare that loop against it. *)

val run : t -> Memtrace.Trace.t -> Run_stats.t
(** Replay a trace one access at a time (the scalar reference path) and
    return statistics for {e this run only}. *)

(** {2 Packed replays}

    Every packed replay below is one pass of the same batched loop. It
    keeps every counter in local ints, consults the TLB and the tint table
    only on page changes, probes an LRU cache that does not classify
    misses itself, over the cache's own state, and allocates nothing per
    access. Two timing hooks
    price the accesses — the blocking arithmetic of {!access}, or the
    event core ({!Event}) — and an optional observer records per-request
    latencies over request windows. Scratchpad and uncached regions,
    streaming tints, prefetch tags, L2 and frame maps all take the loop
    under either hook.

    Each raises [Invalid_argument] naming the first access whose kind byte
    is not 0–2 (possible in a corrupt mapped file), before it changes any
    state. *)

val run_packed : t -> Memtrace.Packed.t -> Run_stats.t
(** Like {!run} — byte-identical {!Run_stats}, pinned by the machine-level
    differential soak — over a trace in columnar form
    ({!Memtrace.Packed}), replayed through the batched loop. This is the
    replay entry point the experiments use. *)

val run_packed_requests :
  t -> Memtrace.Packed.t -> requests:(int * int) array -> Run_stats.t
(** Like {!run_packed}, but additionally records a per-request latency
    distribution in the result's [requests] field. Each [(start, stop)]
    span (start inclusive, stop exclusive, sorted, disjoint) is one
    request; its latency is the cycle delta across the window, so setup
    charges and accesses outside every window count toward totals but not
    toward any request. Aggregate fields are byte-identical to
    {!run_packed} over the same trace. Raises [Invalid_argument] on
    malformed spans. *)

val run_packed_events :
  ?inject_merge_bug:bool ->
  t -> events:Event.config -> Memtrace.Packed.t -> Run_stats.t
(** Replay under the event-driven timing core ({!Event}): misses overlap
    through [events.mlp] MSHRs and a banked DRAM with open-row pricing,
    and the run's [cycles] are the drained event clock. Every functional
    count — hits, misses, writebacks, evictions, TLB and L2 counters,
    prefetches — is byte-identical to {!run_packed} on the same trace (the
    event-core differential soak pins this against {!access}); the
    event-only fields ([mshr_merges], [mshr_stalls], [dram_row_hits],
    [dram_row_conflicts]) report the engine's behaviour. [inject_merge_bug]
    plants the [--inject-bug event] MSHR-merge mutation for harness
    self-tests. *)

val run_packed_requests_events :
  t -> events:Event.config -> Memtrace.Packed.t ->
  requests:(int * int) array -> Run_stats.t
(** {!run_packed_events} with per-request latency accounting. A request's
    latency is its {e retire time minus issue time}: the window opens at
    the core clock when its first access issues and closes at the latest
    retire among its accesses — overlapped misses inside a window are
    priced once, not as a sum of per-access stall costs (which
    double-counts under overlap). Span validation as in
    {!run_packed_requests}. *)

val replay_range : t -> Memtrace.Packed.t -> pos:int -> stop:int -> int
(** Replay accesses [\[pos, stop)] of a packed trace through the batched
    loop under the blocking hook and return the cycles they consumed — the
    sum {!access} would return over them, with the same effect on the
    machine. No {!Run_stats} snapshot is taken and pending {!charge_cycles}
    setup stays pending, as with {!access}; read counters through {!total}
    or {!Cache.Sassoc.stats}. This is the round-robin scheduler's per-slice
    entry: a call allocates nothing, and nothing the loop remembers
    outlives it, so the caller may flush the TLB or re-tint pages between
    calls. Raises
    [Invalid_argument] when the range falls outside the trace, or, before
    any state changes, when one of its kind bytes is not 0–2. *)

val total : t -> Run_stats.t
(** Cumulative statistics since creation (preloads excluded). *)

val flush_cache : t -> unit
val flush_tlb : t -> unit
