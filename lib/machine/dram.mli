(** A small banked DRAM model for the event core.

    Banks with open-row buffers and a bounded channel queue: global row
    [addr / row_bytes] maps to bank [row mod banks] (row-interleaved, so
    streaming spreads across banks), each bank services one request at a
    time in issue order, and at most [queue_depth] requests are in flight
    channel-wide (slots free in issue order). A request landing in the
    bank's open row costs {!Timing.t.dram_row_hit_cycles}; anything else —
    including the first touch of a cold bank — pays the
    row-conflict/activation latency {!Timing.t.dram_row_conflict_cycles}.

    The model is deterministic: outcomes depend only on the configuration
    and the issue sequence. *)

type config = {
  banks : int;
  row_bytes : int;
  queue_depth : int;
}

val config : ?banks:int -> ?row_bytes:int -> ?queue_depth:int -> unit -> config
(** Defaults: 4 banks, 1024-byte rows, 8-deep channel queue. Raises
    [Invalid_argument] when any field is below 1. *)

val default_config : config

type t

val create : Timing.t -> config -> t
(** Raises [Invalid_argument] when the timing's row-hit latency is not
    positive or exceeds its row-conflict latency. *)

val request : t -> now:int -> addr:int -> int
(** Issue one line fetch (or writeback) at time [now] and return its
    completion time: when the bank begins servicing it (no earlier than
    [now]) plus the row-hit or row-conflict latency. Allocation-free.
    Raises [Invalid_argument] on a negative address. *)

type stats = {
  total : int;
  hits : int;  (** open-row hits *)
  conflicts : int;  (** row conflicts, including cold activations *)
  stalls : int;  (** requests delayed by a full channel queue *)
}

val stats : t -> stats
