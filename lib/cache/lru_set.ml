(* Doubly-linked list over slot indices, plus a key -> slot index. Slot -1
   is the nil sentinel. [head] is the most recently used slot.

   The index is a linear-probing table of slot numbers (-1 = empty) sized
   to a power of two at least eight times the capacity, keyed by a
   multiplicative hash of the key, with backward-shift deletion so no
   tombstones build up. The low load keeps probe runs — and the branch
   mispredictions that end them — short: a TLB's 32 entries take a 2 KB
   index. Unlike a polymorphic [Hashtbl] it never calls [caml_hash] and
   never allocates a bucket, so touching the set is allocation-free. *)
type t = {
  capacity : int;
  keys : int array;
  prev : int array;
  next : int array;
  index : int array;
  index_mask : int;
  index_shift : int;  (* 63 - log2 (Array.length index) *)
  free : int array;  (* stack of unused slots *)
  mutable free_n : int;
  mutable head : int;
  mutable tail : int;
  mutable length : int;
}

let hit = -2
let inserted = -1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru_set.create: capacity must be positive";
  let bits = ref 1 in
  while 1 lsl !bits < 8 * capacity do
    incr bits
  done;
  {
    capacity;
    keys = Array.make capacity 0;
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    index = Array.make (1 lsl !bits) (-1);
    index_mask = (1 lsl !bits) - 1;
    index_shift = 63 - !bits;
    free = Array.init capacity (fun i -> capacity - 1 - i);
    free_n = capacity;
    head = -1;
    tail = -1;
    length = 0;
  }

let capacity t = t.capacity
let length t = t.length

(* Top bits of the key times an odd 62-bit constant. *)
let home t (key : int) = (key * 0x3243F6A8885A308D) lsr t.index_shift

(* The index position holding [key]'s slot, or the empty position that ends
   its probe chain. *)
let rec probe t (key : int) pos =
  let s = Array.unsafe_get t.index pos in
  if s < 0 || Array.unsafe_get t.keys s = key then pos
  else probe t key ((pos + 1) land t.index_mask)

let find t key = Array.unsafe_get t.index (probe t key (home t key))

(* Backward-shift deletion: empty [hole], then walk the rest of the probe
   run moving back every entry whose home position does not lie cyclically
   in (hole, pos] — those would be unreachable across the new gap. *)
let rec close_hole t hole pos =
  let pos = (pos + 1) land t.index_mask in
  let s = Array.unsafe_get t.index pos in
  if s < 0 then Array.unsafe_set t.index hole (-1)
  else
    let h = home t (Array.unsafe_get t.keys s) in
    let stays = if hole <= pos then hole < h && h <= pos else hole < h || h <= pos in
    if stays then close_hole t hole pos
    else begin
      Array.unsafe_set t.index hole s;
      close_hole t pos pos
    end

let unindex t key =
  let pos = probe t key (home t key) in
  close_hole t pos pos

let mem t key = key >= 0 && find t key >= 0

let unlink t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t slot =
  t.prev.(slot) <- -1;
  t.next.(slot) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- slot;
  t.head <- slot;
  if t.tail < 0 then t.tail <- slot

let touch t key =
  if key < 0 then invalid_arg "Lru_set.touch: negative key";
  let pos = probe t key (home t key) in
  let slot = Array.unsafe_get t.index pos in
  if slot >= 0 then begin
    if t.head <> slot then begin
      unlink t slot;
      push_front t slot
    end;
    hit
  end
  else if t.free_n > 0 then begin
    t.free_n <- t.free_n - 1;
    let slot = t.free.(t.free_n) in
    t.keys.(slot) <- key;
    Array.unsafe_set t.index pos slot;
    push_front t slot;
    t.length <- t.length + 1;
    inserted
  end
  else begin
    (* reuse the least-recently-used slot: index the key at the free
       position its probe ended on, then delete the victim's entry —
       backward-shift deletion keeps every remaining entry reachable, the
       new one included, so no second probe for the key is needed *)
    let victim = t.tail in
    let victim_key = t.keys.(victim) in
    let victim_pos = probe t victim_key (home t victim_key) in
    unlink t victim;
    t.keys.(victim) <- key;
    Array.unsafe_set t.index pos victim;
    close_hole t victim_pos victim_pos;
    push_front t victim;
    victim_key
  end

let mru_slot t = t.head

let remove t key =
  key >= 0
  &&
  let slot = find t key in
  slot >= 0
  && begin
       unlink t slot;
       unindex t key;
       t.free.(t.free_n) <- slot;
       t.free_n <- t.free_n + 1;
       t.length <- t.length - 1;
       true
     end

let clear t =
  Array.fill t.index 0 (Array.length t.index) (-1);
  for i = 0 to t.capacity - 1 do
    t.free.(i) <- t.capacity - 1 - i
  done;
  t.free_n <- t.capacity;
  t.head <- -1;
  t.tail <- -1;
  t.length <- 0

let to_list t =
  let rec loop slot acc =
    if slot < 0 then List.rev acc else loop t.next.(slot) (t.keys.(slot) :: acc)
  in
  loop t.head []
