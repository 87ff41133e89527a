type kind =
  | Lru
  | Fifo
  | Bit_plru
  | Random of int

let kind_to_string = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Bit_plru -> "plru"
  | Random s -> Printf.sprintf "random:%d" s

let kind_of_string s =
  match String.split_on_char ':' s with
  | [ "lru" ] -> Some Lru
  | [ "fifo" ] -> Some Fifo
  | [ "plru" ] -> Some Bit_plru
  | [ "random" ] -> Some (Random 42)
  | [ "random"; seed ] -> (
      match int_of_string_opt seed with
      | Some s -> Some (Random s)
      | None -> None)
  | _ -> None

let all_kinds = [ Lru; Fifo; Bit_plru; Random 42 ]

type t = {
  kind : kind;
  ways : int;
  way_mask : int;  (* (1 lsl ways) - 1: the bits a column mask may select *)
  (* timestamps: last-use time for LRU, fill time for FIFO. mru_bits: bit-PLRU
     state. rng: xorshift64* state for Random. *)
  stamps : int array;
  mru : Bytes.t;
  mutable clock : int;
  mutable rng : int64;
  select : select;
      (* victim loop among live candidates, precomputed per kind at [create]
         so the per-miss path is a single indirect call with no dispatch *)
}

and select = t -> set:int -> cand:int -> int

let slot t ~set ~way = (set * t.ways) + way

(* --- per-kind victim loops ----------------------------------------------
   Each receives [cand], a non-empty bit set of allowed ways that all hold
   valid lines, and scans it without allocating. The scan orders reproduce
   the original list-based implementation exactly (including tie-breaks), a
   property pinned by the [Oracle.victim_ref] differential property test. *)

(* Lowest set bit; [m] must be non-zero. *)
let rec lowest_bit m i = if m land 1 <> 0 then i else lowest_bit (m lsr 1) (i + 1)
let lowest_bit m = lowest_bit m 0

(* LRU / FIFO: smallest stamp wins; on equal stamps the highest way wins,
   matching the original right-to-left fold. *)
let select_oldest t ~set ~cand =
  let best = ref (-1) in
  for way = t.ways - 1 downto 0 do
    if cand land (1 lsl way) <> 0 then
      if
        !best < 0
        || t.stamps.(slot t ~set ~way) < t.stamps.(slot t ~set ~way:!best)
      then best := way
  done;
  !best

(* Bit-PLRU: first allowed way whose MRU bit is clear; if all are set (can
   happen when the mask excludes the way whose reset kept a zero), fall back
   to the first candidate. *)
let select_plru t ~set ~cand =
  let found = ref (-1) in
  let way = ref 0 in
  while !found < 0 && !way < t.ways do
    if
      cand land (1 lsl !way) <> 0
      && Bytes.get t.mru (slot t ~set ~way:!way) = '\000'
    then found := !way;
    incr way
  done;
  if !found >= 0 then !found else lowest_bit cand

let popcount m =
  let rec loop m acc = if m = 0 then acc else loop (m lsr 1) (acc + (m land 1)) in
  loop m 0

(* k-th (0-based) set bit of [m], ascending; [m] must have > k bits set. *)
let nth_bit m k =
  let rec loop m i k =
    if m land 1 <> 0 then if k = 0 then i else loop (m lsr 1) (i + 1) (k - 1)
    else loop (m lsr 1) (i + 1) k
  in
  loop m 0 k

let next_random t =
  let x = t.rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng <- x;
  Int64.to_int (Int64.logand x 0x3FFFFFFFFFFFFFFFL)

let select_random t ~set:_ ~cand = nth_bit cand (next_random t mod popcount cand)

let select_of_kind = function
  | Lru | Fifo -> select_oldest
  | Bit_plru -> select_plru
  | Random _ -> select_random

let create kind ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Policy.create";
  let seed = match kind with Random s when s <> 0 -> s | Random _ -> 1 | _ -> 1 in
  {
    kind;
    ways;
    way_mask = (1 lsl ways) - 1;
    stamps = Array.make (sets * ways) 0;
    mru = Bytes.make (sets * ways) '\000';
    clock = 0;
    rng = Int64.of_int seed;
    select = select_of_kind kind;
  }

let kind t = t.kind
let ways t = t.ways

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let touch_plru t ~set ~way =
  Bytes.set t.mru (slot t ~set ~way) '\001';
  (* When every way of the set is marked MRU, reset all but the newest. *)
  let all_set = ref true in
  for w = 0 to t.ways - 1 do
    if Bytes.get t.mru (slot t ~set ~way:w) = '\000' then all_set := false
  done;
  if !all_set then
    for w = 0 to t.ways - 1 do
      if w <> way then Bytes.set t.mru (slot t ~set ~way:w) '\000'
    done

let on_hit t ~set ~way =
  match t.kind with
  | Lru -> t.stamps.(slot t ~set ~way) <- tick t
  | Fifo -> ()
  | Bit_plru -> touch_plru t ~set ~way
  | Random _ -> ()

let on_fill t ~set ~way =
  match t.kind with
  | Lru | Fifo -> t.stamps.(slot t ~set ~way) <- tick t
  | Bit_plru -> touch_plru t ~set ~way
  | Random _ -> ()

let victim t ~set ~allowed ~valid =
  let allowed = (allowed : Bitmask.t :> int) land t.way_mask in
  if allowed = 0 then invalid_arg "Policy.victim: empty column mask";
  (* An invalid (empty) allowed way always wins over evicting live data;
     the lowest such way, matching the original front-to-back list scan. *)
  let empties = allowed land lnot (valid : Bitmask.t :> int) in
  if empties <> 0 then lowest_bit empties else t.select t ~set ~cand:allowed

(* --- hot-path state (for Sassoc's batched replay loop) ------------------ *)

let lru_stamps t = match t.kind with Lru -> Some t.stamps | _ -> None
let clock t = t.clock
let set_clock t c = t.clock <- c

(* --- inspection hooks (for the differential reference implementation) --- *)

let stamp t ~set ~way = t.stamps.(slot t ~set ~way)
let mru_bit t ~set ~way = Bytes.get t.mru (slot t ~set ~way) = '\001'
