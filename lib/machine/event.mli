(** The event-driven timing engine behind {!System}'s [--events] replay
    paths: a core clock plus {!Mshr} (up to [mlp] outstanding fills) and a
    banked {!Dram}.

    Per request the engine walks the hit/miss/writeback-allocate FSM: every
    request pays the probe; a hit on a line whose fill is still in flight
    merges into the MSHR entry and retires when the fill lands; a miss
    acquires an MSHR (stalling the core only when all [mlp] are busy),
    writes a dirty victim back to its bank, then fetches the demand line —
    the fill overlapping younger requests. Functional cache state is the
    caller's, updated in program order, so the engine prices time and can
    never change hit/miss/writeback/eviction counts: that is the invariant
    {!Check.Event_diff} pins against the blocking in-order oracle. Every
    per-request entry point returns plain ints and allocates nothing. *)

type config = {
  mlp : int;  (** outstanding misses (MSHR entries) *)
  dram : Dram.config;
}

val config : ?mlp:int -> ?dram:Dram.config -> unit -> config
(** Defaults: [mlp = 4], {!Dram.default_config}. Raises
    [Invalid_argument] when [mlp < 1]. *)

val default_config : config

type t

val create : Timing.t -> config -> t
val now : t -> int

val elapse : t -> int -> unit
(** Advance the core clock by fully-blocking cycles (gaps, TLB walks,
    scratchpad and uncached accesses). *)

val hit : t -> line:int -> int
(** Price one functional hit on [line] and return its retire time. A
    delayed hit — one folded into an in-flight fill — retires when the fill
    lands and counts one step of {!merges}. *)

val miss :
  t -> line:int -> addr:int -> victim:int -> l2_hit:bool -> int
(** Price one functional miss filling [line] at physical [addr]; [victim]
    is the dirty victim's address to write back first, or [-1] for none;
    [l2_hit] fills from the L2 instead of DRAM. Returns the retire (fill)
    time. *)

val prefetch : t -> addr:int -> unit
(** Price an overlapped prefetch fetch: occupies DRAM bandwidth, never
    blocks the core. *)

val finish : t -> int
(** Total elapsed cycles once every outstanding fill has drained. *)

val merges : t -> int
val mshr_stalls : t -> int
val dram_stats : t -> Dram.stats
