(** Fixed-capacity LRU set of non-negative integer keys with O(1) touch.

    Used as the shadow fully-associative cache for three-C miss
    classification and as the TLB's entry store. Every operation but
    {!to_list} is allocation-free: the key index is a flat open-addressing
    table of slot numbers, and {!touch} reports its outcome as an int. *)

type t

val create : capacity:int -> t
val capacity : t -> int
val length : t -> int
val mem : t -> int -> bool

val hit : int
(** [touch]'s result when the key was already present. Negative. *)

val inserted : int
(** [touch]'s result when the key was inserted into free room. Negative. *)

val touch : t -> int -> int
(** Promote the key to most-recently-used, inserting it if absent. Returns
    {!hit}, {!inserted}, or — on an insertion that overflows capacity —
    the evicted least-recently-used key (non-negative). Raises
    [Invalid_argument] on a negative key. *)

val mru_slot : t -> int
(** The slot, in [0, capacity), of the most-recently-used key — after
    [touch t k], [k]'s slot. A key keeps its slot while it stays resident,
    so callers can keep per-key data in a capacity-sized array. Undefined
    on an empty set. *)

val remove : t -> int -> bool
(** Returns whether the key was present. *)

val clear : t -> unit
val to_list : t -> int list
(** Keys from most- to least-recently used. *)
