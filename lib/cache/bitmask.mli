(** Column bit vectors.

    A bitmask names a subset of the cache's columns (ways). The paper's
    replacement unit receives such a vector from the TLB and restricts victim
    selection to it (Section 2.1). Masks support up to 62 columns, which far
    exceeds any realistic way count. *)

type t = private int
(** The bit representation ({!bits}) is visible so the replacement hot path
    can read a mask with a free coercion, [(mask :> int)], instead of a
    call; masks are still built only through this module. *)

val max_columns : int

val empty : t
val full : n:int -> t
(** All columns [0..n-1]. *)

val singleton : int -> t
val of_list : int list -> t
val to_list : t -> int list

val range : lo:int -> hi:int -> t
(** Columns [lo..hi] inclusive. *)

val add : t -> int -> t
val remove : t -> int -> t
val mem : t -> int -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : n:int -> t -> t
val is_empty : t -> bool
val count : t -> int
val subset : t -> t -> bool
(** [subset a b] is true when every column of [a] is in [b]. *)

val min_elt : t -> int
(** Raises [Not_found] on the empty mask. *)

val bits : t -> int
(** The raw bit representation: bit [c] is set iff column [c] is in the mask.
    Exposed so the cache's replacement hot path can scan a mask without
    allocating; ordinary clients should use {!mem}/{!to_list}. *)

val of_bits : int -> t
(** Inverse of {!bits}. Bits at or above {!max_columns} are discarded. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val to_string : n:int -> t -> string
(** Binary rendering with column 0 leftmost, e.g. ["1011"]. *)

val of_string : string -> t
(** Inverse of {!to_string}. *)
