(** Translation look-aside buffer caching page-table tint entries.

    Faithful to the paper's cost model: after a page is re-tinted in the
    page table, the TLB keeps serving the {e stale} tint until that entry is
    flushed or naturally evicted — re-tinting therefore requires explicit
    flushes (Section 2.2), and those flushes are what the Figure 3 demo
    counts. Remapping a tint's bit vector, by contrast, needs no TLB work at
    all because TLB entries store tints, not bit vectors. *)

type t

val create : entries:int -> page_table:Page_table.t -> t

type outcome =
  | Hit
  | Miss

val lookup_page : t -> int -> Tint.t * outcome
(** Look a page up, walking the page table and installing the entry on a
    miss (possibly evicting the LRU entry). *)

val lookup : t -> int -> Tint.t * outcome
(** [lookup t addr] = [lookup_page t (page_of_addr addr)]. *)

val lookup_page_quick : t -> int -> Tint.t
(** Exactly {!lookup_page} — same counters, same LRU update, same
    page-table walk on a miss — but allocation-free: only the tint is
    returned, and the outcome is observable as a delta on {!misses}.
    {!lookup_page} wraps it. Pages are non-negative. *)

val note_hits : t -> int -> unit
(** Credit [n] TLB hits without performing lookups. Only sound for lookups
    that are guaranteed to hit and whose LRU touches are identities
    (repeated references to the most-recently-used page), or whose touches
    the caller made itself through {!lru}. Negative counts are rejected. *)

val note_misses : t -> int -> unit
(** Credit [n] TLB misses whose lookups the caller made itself through
    {!lru} and {!tints}. Negative counts are rejected. *)

(** {2 Hot-path state}

    Raw views of the entry store, consumed only by the machine's batched
    replay loop, which makes its lookups itself instead of calling
    {!lookup_page_quick} once per page change: [Cache.Lru_set.touch_slot]
    on {!lru}, the tint of a hit read from {!tints} at the touched slot,
    and on a miss the page table's tint written there. The counters it
    credits afterwards through {!note_hits} and {!note_misses}. The
    contract — the same touch, slot contents and counts as
    {!lookup_page_quick} — is pinned by the machine differentials. Other
    code must not touch these. *)

val lru : t -> Cache.Lru_set.t
(** The LRU set of resident pages. *)

val tints : t -> Tint.t array
(** Per LRU slot: the tint of the page resident in it, as the page table
    held it when the page was loaded. *)

val flush : t -> unit
val flush_page : t -> int -> bool
(** Returns whether the page was resident. *)

val hits : t -> int
val misses : t -> int
val flushes : t -> int
(** Full flushes performed. *)

val entry_flushes : t -> int
(** Successful single-page flushes. *)

val resident_pages : t -> int list
(** Most- to least-recently-used. *)

val capacity : t -> int
