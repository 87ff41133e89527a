(** A deliberately naive, obviously-correct model of the column cache.

    This is the trusted half of the differential harness: it implements the
    exact observable semantics of {!Cache.Sassoc} — lookup over every way,
    replacement restricted to a software-supplied column mask, the four
    replacement policies, eviction/writeback accounting and the three-C miss
    classification — but with the dumbest data structures that can possibly
    work: an association list of resident lines, explicit per-policy recency
    lists, linear scans everywhere. No packed arrays, no tag arithmetic, no
    shared state with the real simulator. When {!Diff} replays the same
    trace through both and they agree, the agreement is evidence, not
    tautology.

    The only sophistication retained is the {e random} policy's xorshift64*
    stream, reproduced bit-for-bit so that a shared seed makes the two
    simulators' random victim choices comparable. *)

(** Intentional bugs for mutation-testing the harness itself: a conformance
    harness that cannot catch a planted bug proves nothing. *)
type bug =
  | Mru_instead_of_lru
      (** under LRU, evict the most recently used allowed way *)
  | Ignore_mask  (** choose victims from all ways, ignoring the column mask *)
  | Skip_writeback_count  (** forget to count writebacks of dirty victims *)
  | Fast_path
      (** planted in {!Diff}'s batched real-side driver, not here: the batch
          fed to [Sassoc.access_trace] demotes writes to reads, losing dirty
          bits. Proves the fast-path routing can catch batching bugs. *)
  | Machine_fast_path
      (** planted in {!Machine_diff}'s batched side, not here: the packed
          batch fed to [Machine.System.run_packed_requests] zeroes every access's
          [gap], corrupting instruction and cycle accounting. Proves the
          machine-level soak can catch batched-replay bugs. *)
  | Mrc
      (** planted in {!Mrc_diff}'s stack-distance side, not here: the
          accesses fed to [Cache.Stack_dist] demote writes to reads, losing
          dirty bits and hence writeback counts. Proves the stack-distance
          differential can catch engine bugs. *)
  | Sample
      (** planted in {!Sample_diff}'s estimator, not here: the sampled
          miss-curve numerator skips the [1/rate] rescale while the
          normalizer keeps it, deflating the estimated miss-ratio curve by
          the effective sampling rate. Proves the sampled-vs-exact error
          bound can catch a forgotten rescale. *)
  | Gen
      (** planted in {!Workloads.Gen}'s Zipf sampler via its [perturb]
          hook, not here: every sampled rank is shifted by one without
          re-clamping, so the top rank escapes the generator's declared
          address range. Proves the soak's containment check on
          generator-backed traffic scenarios catches sampler bugs. *)
  | Wcet
      (** planted in {!Ir.Cache_analysis}'s must-domain join, not here: the
          join becomes union-with-min-age instead of
          intersection-with-max-age, an unsound over-approximation that
          claims always-hits across diverging paths. Proves
          {!Wcet_diff}'s bound-vs-replay comparison can catch an unsound
          abstract domain. *)
  | Event
      (** planted in {!Machine.System}'s event-core MSHR-merge path, not
          here: a delayed hit merged into an in-flight fill is replayed
          against the cache when the fill lands, double-counting the
          reference. Proves {!Event_diff}'s count comparison against the
          blocking in-order oracle catches merge bugs. *)
  | Shard
      (** planted in {!Shard_diff}'s merge loop, not here: the last worker
          domain's shard is dropped from the merge, so every count owned
          by its sets vanishes from the sharded result. Proves the exact
          sharded-vs-serial equality check catches a broken join/merge. *)

val bug_to_string : bug -> string

type t

val create : ?bug:bug -> Cache.Sassoc.config -> t
(** [bug] plants an intentional defect (default: none — faithful model). *)

val geometry : t -> Cache.Sassoc.config
val stats : t -> Cache.Stats.t

val access :
  t -> ?mask:Cache.Bitmask.t -> kind:Memtrace.Access.kind -> int ->
  Cache.Sassoc.result
(** Same contract as {!Cache.Sassoc.access}, including the
    [Invalid_argument] on an empty effective mask. *)

val fill : t -> ?mask:Cache.Bitmask.t -> int -> Cache.Sassoc.result
(** Same behaviour as {!Cache.Sassoc.fill}, reported as a [result]: [Hit]
    when the line was already present. *)

val probe : t -> int -> int option
val way_of_line : t -> int -> int option
val valid_lines : t -> int

val lines_in_set : t -> int -> (int * int) list
(** [(way, line)] pairs of a set, ascending by way — comparable directly
    with {!Cache.Sassoc.lines_in_set}. *)

val invalidate_line : t -> int -> unit

val flush : t -> unit
(** Like {!Cache.Sassoc.flush}: contents are dropped, statistics and
    replacement state survive. *)

val victim_ref :
  Cache.Policy.t -> set:int -> allowed:Cache.Bitmask.t ->
  valid:Cache.Bitmask.t -> int
(** The naive, list-based specification of {!Cache.Policy.victim}: build the
    candidate list, prefer the lowest empty allowed way, otherwise scan per
    policy (smallest stamp with ties to the highest way for LRU/FIFO; first
    clear MRU bit, else first candidate, for bit-PLRU; the n-th candidate
    from the shared xorshift64* stream for Random). The allocation-free
    bitwise scans in [Policy] are property-tested against this — give each
    side its own [Policy.t] with identical history, since Random draws from
    (and advances) the stream. *)
