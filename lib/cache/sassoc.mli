(** The set-associative cache with column-restricted replacement.

    This is the paper's reference implementation of column caching
    (Section 2.1): lookup behaves exactly like a standard set-associative
    cache — every way of the selected set is searched, so a hit costs the
    same whatever the mapping — while on a miss the replacement unit is
    restricted to the ways named by a software-supplied {!Bitmask.t}. Passing
    the full mask on every access yields a standard cache. *)

type config = {
  line_size : int;  (** bytes per cache line; power of two *)
  sets : int;  (** number of sets; power of two *)
  ways : int;  (** columns; 1..{!Bitmask.max_columns} *)
  policy : Policy.kind;
  classify : bool;
      (** when true, maintain the shadow structures needed for the
          cold/capacity/conflict miss breakdown *)
}

val config :
  ?line_size:int -> ?policy:Policy.kind -> ?classify:bool ->
  size_bytes:int -> ways:int -> unit -> config
(** Convenience constructor from a total size. Defaults: 16-byte lines, LRU,
    no classification. Raises [Invalid_argument] if the geometry does not
    divide evenly. *)

val config_size_bytes : config -> int
val column_size_bytes : config -> int

type result =
  | Hit of { way : int }
  | Miss of { way : int; evicted_line : int option }
      (** [evicted_line] is the line address of the displaced block, when a
          valid block was displaced. *)

type t

val create : config -> t
val geometry : t -> config
val stats : t -> Stats.t

val access : t -> ?mask:Bitmask.t -> kind:Memtrace.Access.kind -> int -> result
(** [access t ~mask addr] performs one reference. [mask] defaults to all
    ways. An empty effective mask raises [Invalid_argument]: hardware always
    receives at least one permissible column. *)

val access_record : t -> ?mask:Bitmask.t -> Memtrace.Access.t -> result

val access_coded : t -> ?mask:Bitmask.t -> kind:Memtrace.Access.kind -> int -> int
(** Exactly {!access} — same state and statistics updates, same
    [Invalid_argument] on an empty effective mask — but the outcome comes
    back as two bits instead of a [result] block, so the caller allocates
    nothing: bit 0 is set on a miss, bit 1 when a dirty victim was written
    back ([0] hit, [1] clean miss, [3] miss with writeback). The victim way
    and evicted line are not reported; a written-back line is, through
    {!writeback_line}. *)

val access_masked : t -> mask:Bitmask.t -> kind:Memtrace.Access.kind -> int -> int
(** {!access_coded} with the mask passed unboxed: a caller that always has
    a mask passes it without allocating the [Some] an optional argument
    needs. *)

val writeback_line : t -> int
(** The line address written back by the most recent miss of
    {!access_coded}, {!access_masked}, {!access} or {!fill},
    when that miss wrote one back (bit 1 of the coded outcome); [-1] when
    it did not. The machine's event-driven timing prices the writeback to
    this line's DRAM bank. *)

(** {2 Hot-path state}

    Raw views of the cache, consumed only by the machine's batched replay
    loop, which probes an LRU cache itself instead of calling
    {!access_masked} once per access (dune's dev profile compiles every
    module with [-opaque], so no call across modules is inlined). The
    contract is {!access_masked}'s, step for step: a reference decomposes
    its address with the geometry's shifts; a hit is the one slot of the
    set whose tag matches (empty slots hold a negative tag, which no line
    has); it records its way as the set's prediction, stamps the slot with
    the incremented clock, and marks the slot dirty on a write. A miss
    evicts the lowest empty way of the mask, else the mask's way with the
    smallest stamp (the highest such way on a tie), counts the eviction and
    a dirty victim's writeback, installs the tag (dirty on a write), marks
    the way valid and predicted, stamps it and counts the way's fill. The
    caller lands its access, hit, miss, eviction and writeback counts in
    {!stats}, the clock through {!set_clock}, and the last miss's lines
    through {!set_last_install}, before any other call sees the cache. The
    machine differentials pin the contract; other code must not touch
    these. *)

val lru_stamps : t -> int array option
(** The LRU stamp array, indexed [set * ways + way], when the policy is
    LRU and the cache does not classify misses: the caches the loop probes
    itself. [None] otherwise. *)

val raw_tags : t -> int array
(** Per slot ([set * ways + way]): the tag held, negative when empty. *)

val raw_valid : t -> int array
(** Per set: the bit mask of valid ways. *)

val raw_pred : t -> int array
(** Per set: the predicted way, probed before the others. *)

val raw_dirty : t -> Bytes.t
(** Per slot: ['\001'] when the line is dirty, ['\000'] otherwise. *)

val clock : t -> int
(** The replacement policy's clock: the last stamp handed out. *)

val set_clock : t -> int -> unit

val require_mask : t -> Bitmask.t -> unit
(** Raises {!access_masked}'s [Invalid_argument] when the mask selects no
    way of this cache. *)

val set_last_install : t -> evicted:int -> writeback:int -> unit
(** Record the lines the most recent miss displaced and wrote back ([-1]
    for none), as {!writeback_line} reports them. *)

val access_trace : t -> ?mask:Bitmask.t -> Memtrace.Trace.t -> unit
(** Replay a whole trace of demand accesses under one mask. Equivalent to
    [Trace.iter (fun a -> ignore (access_record t ?mask a)) trace] — same
    statistics, contents and replacement state afterwards — but without
    constructing per-access [result] values: the non-classifying path
    performs no heap allocation at all. This is the simulation hot path;
    callers that need per-access results keep using {!access}. *)

val fill : t -> mask:Bitmask.t -> int -> bool
(** Install the line holding the address as a prefetch would: victim
    selection and eviction behave exactly like {!access}, but the operation
    is not counted as a demand access, hit or miss (evictions and
    writebacks it causes are still counted). A line already present is
    left untouched. Returns whether the line was installed.
    Allocation-free; raises [Invalid_argument] on an empty effective
    mask. *)

val probe : t -> int -> int option
(** Side-effect-free lookup; returns the way holding the address if any. *)

val way_of_line : t -> int -> int option
(** Which way currently caches the given line address, if any. *)

val set_of_addr : t -> int -> int
(** The set the address indexes into. *)

(** {2 Address decomposition}

    How an address splits into (line, set, tag) under this geometry. The
    shifts involved are precomputed at {!create}; these accessors exist so
    tests can pin the decomposition across geometries (1 way, max ways,
    1 set) independently of the replacement machinery. *)

val line_of_addr : t -> int -> int
(** [addr lsr log2 line_size]. *)

val set_of_line : t -> int -> int
(** [line land (sets - 1)]. *)

val tag_of_line : t -> int -> int
(** [line lsr log2 sets]. *)

val set_occupancy : t -> int -> int
(** Number of valid ways in a set. Raises [Invalid_argument] on an
    out-of-range set index. *)

val lines_in_set : t -> int -> (int * int) list
(** [(way, line)] pairs of the valid ways of a set, ascending by way. These
    inspection hooks exist for the differential oracle in [colcache.check]
    and for invariant checks in tests; simulation code does not use them. *)

val occupied_ways : t -> int -> Bitmask.t
(** Mask of the valid ways of a set ([lines_in_set] projected to ways). *)

val lines_in_column : t -> int -> int list
(** Line addresses currently valid in a column, ascending. *)

val valid_lines : t -> int
val invalidate_line : t -> int -> unit
val flush : t -> unit
(** Invalidate everything; statistics are preserved. *)

val reset_stats : t -> unit
