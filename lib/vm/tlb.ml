type outcome =
  | Hit
  | Miss

module Lru_set = Cache.Lru_set

type t = {
  page_table : Page_table.t;
  lru : Lru_set.t;
  tints : Tint.t array;  (* per LRU slot: the resident page's tint snapshot *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable entry_flushes : int;
  (* [Lru_set.touch]'s result for the most recent lookup: hit, inserted,
     or the evicted page *)
  mutable last_lookup : int;
}

let create ~entries ~page_table =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    page_table;
    lru = Lru_set.create ~capacity:entries;
    tints = Array.make entries Tint.default;
    hits = 0;
    misses = 0;
    flushes = 0;
    entry_flushes = 0;
    last_lookup = Lru_set.hit;
  }

(* One lookup: a single LRU touch decides hit or miss, and the tint lives in
   the touched page's LRU slot, so a hit is one index probe and a miss one
   page-table walk. Allocation-free; the outcome is observable as a delta on
   [misses]. This is the per-access entry the machine's batched replay loop
   uses. *)
let lookup_page_quick t page =
  let r = Lru_set.touch t.lru page in
  let slot = Lru_set.mru_slot t.lru in
  t.last_lookup <- r;
  if r = Lru_set.hit then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.tints slot
  end
  else begin
    t.misses <- t.misses + 1;
    let tint = Page_table.tint_of_page t.page_table page in
    Array.unsafe_set t.tints slot tint;
    tint
  end

let lookup_page t page =
  let misses = t.misses in
  let tint = lookup_page_quick t page in
  (tint, if t.misses = misses then Hit else Miss)

let lookup t addr = lookup_page t (Page_table.page_of_addr t.page_table addr)
let last_lookup t = t.last_lookup

(* Re-apply the LRU touch of a page that is guaranteed resident, without
   counting a hit (the hit was credited in bulk via [note_hits]). The
   batched replay defers touches of its memoized pages and replays them in
   last-use order before any real lookup: a sequence of hits only reorders
   the touched entries to the front, so touching each once, oldest last-use
   first, reproduces the exact LRU state. *)
let touch_resident t page =
  if Lru_set.touch t.lru page <> Lru_set.hit then
    invalid_arg "Tlb.touch_resident: page not resident"

(* Credit [n] hits without performing the lookups. Only sound when every
   skipped lookup is guaranteed to hit AND to leave the LRU state unchanged
   — i.e. repeated references to the page that is already most recently
   used, where [Lru_set.touch] is the identity. The machine's batched
   replay uses this for runs of consecutive same-page accesses. *)
let note_hits t n =
  if n < 0 then invalid_arg "Tlb.note_hits: negative count";
  t.hits <- t.hits + n

let flush t =
  Lru_set.clear t.lru;
  t.flushes <- t.flushes + 1

let flush_page t page =
  let present = Lru_set.remove t.lru page in
  if present then t.entry_flushes <- t.entry_flushes + 1;
  present

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
let entry_flushes t = t.entry_flushes
let resident_pages t = Lru_set.to_list t.lru
let capacity t = Lru_set.capacity t.lru
