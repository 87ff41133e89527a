(* A flat linear-probing table of 32-line blocks. Slot [pos] is [stride]
   bytes at offset [pos * stride] of [slots]: a 32-bit membership word (bit
   [line land 31] of block [line asr 5]) followed by the block's key. Keys
   are 4 bytes while every key fits in 32 bits — 8 bytes a slot, so even a
   trace whose lines never share a block costs at most 32 bytes a line at
   the quarter load that follows a growth, under the 36–40 bytes a
   polymorphic hash table spends on each binding and its bucket. The first
   key beyond 32 bits re-lays the table with 8-byte keys at the same
   capacity. An empty slot is a zero word: an occupied slot always has a
   bit set, so no key value is reserved.

   The home slot is the top bits of the key times an odd 62-bit constant,
   as in [Lru_set]; the table doubles when more than half its slots are
   occupied, so probe runs stay short. Nothing calls [caml_hash] and nothing
   allocates outside a growth. *)

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let narrow = 8
let wide = 12
let initial_bits = 4

type t = {
  mutable slots : Bytes.t;
  mutable stride : int;  (* [narrow] or [wide] bytes a slot *)
  mutable mask : int;  (* capacity - 1 *)
  mutable shift : int;  (* 63 - log2 capacity *)
  mutable blocks : int;  (* occupied slots *)
  mutable lines : int;  (* bits set over every word *)
}

let create () =
  {
    slots = Bytes.make ((1 lsl initial_bits) * narrow) '\000';
    stride = narrow;
    mask = (1 lsl initial_bits) - 1;
    shift = 63 - initial_bits;
    blocks = 0;
    lines = 0;
  }

let length t = t.lines

let word_at slots off = Int32.to_int (get32 slots off) land 0xFFFF_FFFF

let key_at slots ~stride off =
  if stride = narrow then Int32.to_int (get32 slots (off + 4))
  else Int64.to_int (get64 slots (off + 4))

let set_key t off key =
  if t.stride = narrow then set32 t.slots (off + 4) (Int32.of_int key)
  else set64 t.slots (off + 4) (Int64.of_int key)

let fits_narrow key = Int32.to_int (Int32.of_int key) = key
let home t (key : int) = (key * 0x3243F6A8885A308D) lsr t.shift

(* Byte offset of the slot holding [key], or of the empty slot that ends
   its probe run. *)
let rec probe t (key : int) pos =
  let off = pos * t.stride in
  if word_at t.slots off = 0 || key_at t.slots ~stride:t.stride off = key then
    off
  else probe t key ((pos + 1) land t.mask)

(* Re-lay the occupied slots into a table of [2^bits] slots of [stride]
   bytes: a growth, a widening, or both. *)
let relayout t ~bits ~stride =
  let old = t.slots and old_stride = t.stride and old_cap = t.mask + 1 in
  t.slots <- Bytes.make ((1 lsl bits) * stride) '\000';
  t.stride <- stride;
  t.mask <- (1 lsl bits) - 1;
  t.shift <- 63 - bits;
  for pos = 0 to old_cap - 1 do
    let off = pos * old_stride in
    let w = word_at old off in
    if w <> 0 then begin
      let key = key_at old ~stride:old_stride off in
      let off = probe t key (home t key) in
      set32 t.slots off (Int32.of_int w);
      set_key t off key
    end
  done

let bits t = 63 - t.shift

(* OR [word] into [key]'s block, returning the bits it newly set; [lines]
   is the caller's to update. *)
let insert t key word =
  if t.stride = narrow && not (fits_narrow key) then
    relayout t ~bits:(bits t) ~stride:wide;
  let off = probe t key (home t key) in
  let old = word_at t.slots off in
  let fresh = word land lnot old in
  if fresh <> 0 then begin
    set32 t.slots off (Int32.of_int (old lor word));
    if old = 0 then begin
      set_key t off key;
      t.blocks <- t.blocks + 1;
      if 2 * t.blocks > t.mask + 1 then
        relayout t ~bits:(bits t + 1) ~stride:t.stride
    end
  end;
  fresh

let add t line =
  let fresh = insert t (line asr 5) (1 lsl (line land 31)) <> 0 in
  if fresh then t.lines <- t.lines + 1;
  fresh

let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) lsr 24) land 0xFF

let union_into dst src =
  for pos = 0 to src.mask do
    let off = pos * src.stride in
    let w = word_at src.slots off in
    if w <> 0 then
      let fresh = insert dst (key_at src.slots ~stride:src.stride off) w in
      dst.lines <- dst.lines + popcount32 fresh
  done
