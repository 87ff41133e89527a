(** Variable lifetimes and pairwise conflict weights (paper Section 3.1.1).

    The lifetime of a variable is the interval between its first and last
    reference in a run. Two variables with disjoint lifetimes can share a
    cache column without conflicts; otherwise the potential-conflict weight
    is the minimum of their access counts inside the lifetime overlap:
    w(vi,vj) = MIN(n_i, n_j). Weights are relative, not absolute miss
    counts — only their ordering matters to the layout pass.

    Summaries come from two sources, mirroring the paper's two methods:
    - the {e profile-based method}: {!of_packed} extracts exact positions
      of every access from a run on representative data;
    - the {e program-analysis method}: {!module:Ir.Static_analysis} estimates
      counts and intervals from the intermediate form; such summaries carry
      no positions and overlap counts fall back to a uniform-distribution
      approximation. *)

type summary = {
  accesses : float;
      (** total references; float because static estimates are weighted by
          branch probabilities *)
  first : int;  (** position of first reference *)
  last : int;  (** position of last reference *)
  positions : int array option;
      (** exact, ascending reference positions when profiled *)
}

val summary :
  ?positions:int array -> accesses:float -> first:int -> last:int -> unit -> summary
(** Raises [Invalid_argument] when [last < first], [accesses < 0], or the
    positions array is not ascending or lies outside [first,last]. *)

val of_packed : Memtrace.Packed.t list -> (string * summary) list
(** One summary per tagged variable (untagged accesses are ignored), in
    order of first appearance. The traces are profiled as one run, laid end
    to end: positions are indices into their concatenation. *)

val of_trace : Memtrace.Trace.t -> (string * summary) list
(** [of_packed] of the one trace. *)

(** How {!of_packed_classified} profiles the accesses of one variable. *)
type rule =
  | Skip  (** not profiled *)
  | Whole  (** one summary under the variable's name *)
  | Split of {
      base : int;
      chunk : int;
    }
      (** one summary per [chunk]-byte subarray: an access at [addr] goes
          to ["name#k"] with [k = (addr - base) / chunk] *)

val of_packed_classified :
  Memtrace.Packed.t list ->
  rule:(string -> rule) ->
  (string * summary) list
(** Like {!of_packed}, with each variable profiled as [rule] says ([rule]
    is asked once per variable and trace). Used to profile {e subarrays}:
    the layout pass splits variables larger than a column (paper Section
    3.1 step 1), and because the profile has exact addresses, each subarray
    can get its own exact lifetime instead of inheriting the whole
    variable's — the program analysis method cannot do this, which is part
    of the two methods' accuracy gap. Summaries are in order of first
    appearance, whatever their rule. *)

val live_at : summary -> int -> bool
val overlap : summary -> summary -> (int * int) option
(** Intersection of the two lifetimes, when non-empty. *)

val accesses_within : summary -> lo:int -> hi:int -> float
(** References falling in [lo,hi] (inclusive). Exact when positions are
    available; otherwise assumes references are uniform over the lifetime. *)

val weight : summary -> summary -> int
(** The paper's w(vi,vj): 0 for disjoint lifetimes, otherwise
    MIN over the two variables of accesses within the overlap, rounded. *)

val pp_summary : Format.formatter -> summary -> unit
