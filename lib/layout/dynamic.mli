(** Dynamic data layout (paper Section 3.2).

    Column mappings can change "almost instantaneously", so the static
    algorithm can be run per procedure (or per phase) and the mappings
    swapped at phase boundaries. This module turns a list of phases — each
    with its own {!Partition.t} — into a runnable schedule that applies only
    the {e deltas} between consecutive partitions and accounts for what each
    transition really costs:

    - a tint-table write per region whose column set changes (cheap — the
      whole point of tints);
    - page-table writes and TLB entry flushes only for regions tinted for
      the first time (a region's tint never changes, only the tint's bit
      vector does);
    - preload traffic for scratchpad regions whose contents may have been
      displaced.

    As the paper notes, phases over disjoint variable sets need no
    re-assignment at all: their transitions are empty. *)

type phase = {
  label : string;
  partition : Partition.t;
  copy_in : string list;
      (** variables needing an explicit copy when pinned; see
          {!Partition.apply} *)
}

val phase : ?copy_in:string list -> label:string -> Partition.t -> phase
(** Raises [Invalid_argument] if the partition leaves regions uncached
    (uncached regions cannot be revoked mid-run, so dynamic schedules must
    avoid them — pick a split with at least one cache column). *)

type transition = {
  to_label : string;
  remapped_regions : string list;
      (** regions whose column set changed (one tint-table write each) *)
  first_tints : string list;
      (** regions tinted for the first time (PTE writes + TLB flushes) *)
  preloaded_regions : string list;
      (** scratchpad regions (re)loaded at this boundary *)
  pte_writes : int;
  tint_table_writes : int;
  tlb_entry_flushes : int;
  preload_lines : int;
}

val no_op : transition -> bool
(** True when the boundary required no reconfiguration at all (disjoint or
    identically-mapped phases). *)

type schedule

val schedule : phase list -> schedule
(** Raises [Invalid_argument] on an empty list or phases whose specs
    (column count/size) disagree. *)

val phases : schedule -> phase list

val plan : schedule -> transition list
(** The predicted transition at each phase boundary (including the initial
    configuration as the first transition), without running anything. *)

val run :
  system:Machine.System.t ->
  traces:(string * Memtrace.Packed.t) list ->
  schedule ->
  Machine.Run_stats.t * transition list
(** Execute the schedule: at each phase boundary apply the delta (measuring
    actual reconfiguration counters from the system's {!Vm.Mapping.t}), then
    replay the phase's trace. [traces] is keyed by phase label. Returns the
    summed run statistics and the measured transitions. *)

val pp_transition : Format.formatter -> transition -> unit
