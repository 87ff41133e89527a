(** Layout regions: the units the column-assignment algorithm places.

    Step 1 of the paper's algorithm (Section 3.1): a variable larger than a
    column cannot behave as scratchpad even if exclusively assigned, so it
    is split into column-sized subarrays; each subarray becomes one region
    (one graph vertex, one tint). Variables that fit are single regions. *)

type t = {
  var : string;  (** original program variable *)
  part : int;  (** subarray index, 0 for unsplit variables *)
  parts : int;  (** total subarrays of the variable *)
  offset : int;  (** byte offset of this subarray within the variable *)
  size : int;  (** bytes; always <= the column size used for splitting *)
  summary : Profile.Lifetime.summary;
      (** the variable's summary with accesses divided evenly among its
          subarrays (the IF carries no per-subarray profile) *)
}

val name : t -> string
(** ["var"] for unsplit variables, ["var#part"] otherwise. *)

val tint : t -> Vm.Tint.t
(** One tint per region, named after {!name}. *)

val density : t -> float
(** Estimated accesses per byte: the greedy key for scratchpad selection. *)

val split_vars :
  ?region_summaries:(string * Profile.Lifetime.summary) list ->
  column_size:int ->
  vars:(string * int) list ->
  summaries:(string * Profile.Lifetime.summary) list ->
  unit ->
  t list
(** Build regions for every variable that has a summary (variables without
    summaries are never referenced and need no placement). Preserves
    [vars] order; raises [Invalid_argument] on non-positive sizes or a
    non-positive column size.

    When a variable is split, each subarray's summary is looked up in
    [region_summaries] under the region's {!name} (["var#part"]) — exact
    per-subarray lifetimes from
    {!Profile.Lifetime.of_packed_classified} — and only falls back to
    dividing the whole variable's summary evenly when absent. *)

val pp : Format.formatter -> t -> unit
