(** The end-to-end flow the paper describes: take an IF program, obtain
    per-variable weights (by profiling a run or by static analysis), lay its
    variables out over a column cache, and measure the result on the machine
    model.

    This is the module the experiments and examples drive; everything in it
    is a thin composition of the substrate libraries. *)

(** Section 3.1.1's two ways of producing interference weights. *)
type weight_method =
  | Profile_based  (** run on representative data, exact lifetimes *)
  | Program_analysis  (** estimate from the IF, no execution *)

type memo
(** Per-pipeline cache of interpreted traces, derived regions and copy-in
    sets. Sweeps evaluate many configuration points over the same
    procedures; the expensive trace interpretation happens once per
    procedure instead of once per point, into one packed trace that replay
    and profiling both read. Thread-safe; transparent to callers (every
    cached value is deterministic in the pipeline's fields). *)

type t = {
  program : Ir.Ast.program;
  init : string -> int -> int;
  cache : Cache.Sassoc.config;
  page_size : int;
  tlb_entries : int;
  default_trip_count : int;
      (** trip count assumed for loops whose bounds the static analysis
          cannot resolve to constants; calibrates {!Program_analysis} *)
  address_map : Layout.Address_map.t;
      (** fixed "linker" placement of every program variable; repartitioning
          never moves data *)
  memo : memo;
}

val make :
  ?page_size:int ->
  ?tlb_entries:int ->
  ?init:(string -> int -> int) ->
  ?default_trip_count:int ->
  cache:Cache.Sassoc.config ->
  Ir.Ast.program ->
  t
(** Defaults: 256-byte pages, 32 TLB entries, zero-initialised data,
    {!Ir.Static_analysis.default_trip_count} for unresolvable loop
    bounds. *)

val columns : t -> int
val column_size : t -> int

val packed_trace_of : t -> proc:string -> Memtrace.Packed.t
(** The procedure's trace under the pipeline's address map, interpreted
    once per pipeline and procedure — feed it to
    {!Machine.System.run_packed}. *)

val trace_of : t -> proc:string -> Memtrace.Trace.t
(** {!packed_trace_of} boxed into a fresh {!Memtrace.Trace.t} on every
    call, for consumers of the boxed form. *)

val summaries :
  t -> proc:string -> meth:weight_method -> (string * Profile.Lifetime.summary) list

val regions : t -> proc:string -> meth:weight_method -> Layout.Region.t list

val copy_in_of : t -> proc:string -> string list
(** The variables the procedure both reads and writes, which need a real
    copy when pinned to scratchpad (see {!Layout.Partition.apply}). A set:
    the order of the list carries no meaning. *)

val partition :
  ?forced_scratchpad:string list ->
  ?mode:Layout.Partition.mode ->
  t ->
  proc:string ->
  scratchpad_columns:int ->
  meth:weight_method ->
  Layout.Partition.t

val fresh_system : t -> Machine.System.t
(** A machine with this experiment's cache geometry and an untouched
    mapping. *)

val run_partitioned :
  ?forced_scratchpad:string list ->
  ?mode:Layout.Partition.mode ->
  t ->
  proc:string ->
  scratchpad_columns:int ->
  meth:weight_method ->
  Machine.Run_stats.t * Layout.Partition.t
(** Lay the procedure out for the given scratchpad/cache split on a fresh
    system and replay its trace. This is one data point of Figure 4(a-c). *)

val run_standard : t -> proc:string -> Machine.Run_stats.t
(** Baseline: no mapping at all — the whole cache is one set-associative
    cache shared by everything. *)

val best_split :
  ?allow_uncached:bool ->
  ?mode:Layout.Partition.mode ->
  ?sample_rate:float ->
  ?jobs:int ->
  t ->
  proc:string ->
  meth:weight_method ->
  int * Machine.Run_stats.t
(** Try every scratchpad/cache split and return (scratchpad_columns, stats)
    of the cheapest. [allow_uncached] (default true) also considers splits
    that leave some data uncached; the dynamic runner passes [false].
    [sample_rate] ranks the candidate points with the SHARDS-sampled
    estimator ({!Sweep.partitioned_sampled}) at that rate instead of the
    exact closed form; the returned stats always come from an exact machine
    replay of the winning split, so only the {e choice} of split — not the
    reported numbers — can be perturbed by sampling noise. [jobs] (default
    1) routes the exact ranking through {!Sweep.partitioned_parallel} with
    that many worker domains — byte-identical ranking, so the chosen split
    and the reported stats are independent of [jobs]. Raises
    [Invalid_argument] when [jobs < 1] or [jobs] exceeds the set count. *)

val dynamic_schedule :
  ?mode:Layout.Partition.mode ->
  t -> procs:string list -> meth:weight_method ->
  Layout.Dynamic.schedule * (string * Memtrace.Packed.t) list
(** Build the Section 3.2 schedule: each procedure's best
    (uncached-free) layout as one phase, plus the traces keyed by phase
    label, ready for {!Layout.Dynamic.run}. *)

val run_dynamic_detailed :
  ?mode:Layout.Partition.mode ->
  t -> procs:string list -> meth:weight_method ->
  Machine.Run_stats.t * Layout.Dynamic.transition list
(** Run the dynamic schedule on a fresh system; also returns what each phase
    boundary actually cost (tint-table writes, PTE writes, preloads). *)

val run_dynamic :
  ?mode:Layout.Partition.mode ->
  t -> procs:string list -> meth:weight_method -> Machine.Run_stats.t
(** The column-cache result of Figure 4(d): one system, each procedure
    preceded by an instantaneous remap to its own best layout (computed with
    [allow_uncached:false]), traces replayed back to back. *)

val run_static_app :
  ?mode:Layout.Partition.mode ->
  t -> procs:string list -> scratchpad_columns:int -> meth:weight_method ->
  Machine.Run_stats.t
(** The fixed-partition baseline of Figure 4(d): one layout computed from
    the procedures' combined trace, applied once, all procedures replayed
    through it. *)
