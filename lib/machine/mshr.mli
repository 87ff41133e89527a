(** Miss-status holding registers: the bookkeeping that lets the event core
    keep N fills outstanding.

    This is a {e timing} structure only. The functional cache state is
    updated in program order by {!System} (a missed line is resident the
    moment the miss is processed), so MSHRs never change hit/miss outcomes
    — they decide {e when} a request retires: a miss allocates a slot
    (waiting for one to drain when all [size] are busy — a structural
    stall), and a subsequent hit on a line whose fill is still in flight is
    a {e delayed hit} that merges into the entry and retires when the fill
    completes. *)

type t

val create : size:int -> t
(** Raises [Invalid_argument] when [size < 1]. *)

val size : t -> int

val in_flight : t -> now:int -> line:int -> int
(** The completion time of the fill of [line] when some slot is filling it
    and the fill completes strictly after [now]; [-1] otherwise.
    Allocation-free, and O(1) when every committed fill is done by
    [now]. *)

val note_merge : t -> unit
(** Count one delayed hit merged into an in-flight fill. *)

val acquire : t -> now:int -> int
(** Reserve the slot to fill through and return the earliest time it is
    available — [now] when a slot is free, otherwise the earliest
    completion among busy slots (counted as a stall). Follow with
    {!commit} once the fill completion time is known. *)

val commit : t -> line:int -> fill_done:int -> unit
(** Record the fill through the slot reserved by the last {!acquire}.
    Raises [Invalid_argument] when no slot is reserved. *)

val allocations : t -> int
val merges : t -> int
val stalls : t -> int
