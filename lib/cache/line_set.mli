(** The set of cache lines a stack-distance engine has ever referenced —
    what tells a cold miss (first touch) from an overflow (a re-access
    deeper than the tracked stack).

    Lines are grouped into blocks of 32 consecutive lines ([line asr 5]),
    and a flat linear-probing table keeps one 32-bit membership word per
    block, so a dense trace pays one slot per 32 lines. Any int is a valid
    line, negative ones included. Only a growth allocates; nothing calls
    the polymorphic hash. *)

type t

val create : unit -> t

val add : t -> int -> bool
(** Insert a line; [true] iff it was absent. *)

val length : t -> int
(** Distinct lines in the set. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every line of [src] to [dst], word by word:
    sets whose lines differ may still share blocks, and only the lines
    new to [dst] count. *)
