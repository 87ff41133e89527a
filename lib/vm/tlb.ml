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
  }

(* One lookup: a single LRU touch decides hit or miss, and the tint lives in
   the touched page's LRU slot, so a hit is one index probe and a miss one
   page-table walk. Allocation-free; the outcome is observable as a delta on
   [misses]. *)
let lookup_page_quick t page =
  let r = Lru_set.touch_slot t.lru page in
  if r >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.tints r
  end
  else begin
    t.misses <- t.misses + 1;
    let tint = Page_table.tint_of_page t.page_table page in
    Array.unsafe_set t.tints (-1 - r) tint;
    tint
  end

let lookup_page t page =
  let misses = t.misses in
  let tint = lookup_page_quick t page in
  (tint, if t.misses = misses then Hit else Miss)

let lookup t addr = lookup_page t (Page_table.page_of_addr t.page_table addr)

(* Credit [n] hits without performing the lookups. Only sound when every
   skipped lookup is guaranteed to hit AND to leave the LRU state unchanged
   — repeated references to the page that is already most recently used,
   where [Lru_set.touch] is the identity — or when the caller performed the
   touches itself through the hot-path views below. *)
let note_hits t n =
  if n < 0 then invalid_arg "Tlb.note_hits: negative count";
  t.hits <- t.hits + n

let note_misses t n =
  if n < 0 then invalid_arg "Tlb.note_misses: negative count";
  t.misses <- t.misses + n

(* --- hot-path state (for the machine's batched replay loop) ------------ *)

let lru t = t.lru
let tints t = t.tints

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
