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
    returned, and the outcome is observable as a delta on {!misses}. The
    machine's batched replay loop uses this on page crossings;
    {!lookup_page} wraps it. Pages are non-negative. *)

val last_lookup : t -> int
(** What the most recent lookup did, in {!Cache.Lru_set.touch}'s terms:
    {!Cache.Lru_set.hit}, {!Cache.Lru_set.inserted} for a miss into a free
    entry, or else the page the miss evicted. The batched replay reads the
    miss and invalidates its page memo from this one int. *)

val note_hits : t -> int -> unit
(** Credit [n] TLB hits without performing lookups. Only sound for lookups
    that are guaranteed to hit, whose LRU touches are either identities
    (repeated references to the most-recently-used page) or replayed
    separately via {!touch_resident} — the batched replay path uses it for
    its memoized-page hits. Negative counts are rejected. *)

val touch_resident : t -> int -> unit
(** Re-apply the LRU touch of a page that is guaranteed resident, without
    touching the hit/miss counters. A run of guaranteed hits only reorders
    the touched entries to the front of the LRU, so the batched replay can
    defer the touches of its memoized pages and replay them — one per page,
    oldest last-use first — right before the next real lookup, reproducing
    the exact LRU state the per-access path would have built. *)

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
