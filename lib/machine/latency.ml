(* Exact per-request latency multiset, stored run-length encoded over the
   sorted distinct cycle counts. Percentiles are nearest-rank over the exact
   distribution — no binning, so sweep evaluation and machine replay agree
   byte-for-byte whenever their per-request cycles do. *)

type t = { values : int array; counts : int array; total : int }

let empty = { values = [||]; counts = [||]; total = 0 }

let count t = t.total

let is_empty t = t.total = 0

let of_sorted_samples sorted =
  let n = Array.length sorted in
  if n = 0 then empty
  else begin
    let distinct = ref 1 in
    for i = 1 to n - 1 do
      if sorted.(i) <> sorted.(i - 1) then incr distinct
    done;
    let values = Array.make !distinct 0 in
    let counts = Array.make !distinct 0 in
    let j = ref 0 in
    values.(0) <- sorted.(0);
    counts.(0) <- 1;
    for i = 1 to n - 1 do
      if sorted.(i) = values.(!j) then counts.(!j) <- counts.(!j) + 1
      else begin
        incr j;
        values.(!j) <- sorted.(i);
        counts.(!j) <- 1
      end
    done;
    { values; counts; total = n }
  end

let of_samples samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  of_sorted_samples sorted

let merge a b =
  if a.total = 0 then b
  else if b.total = 0 then a
  else begin
    let na = Array.length a.values and nb = Array.length b.values in
    let values = Array.make (na + nb) 0 in
    let counts = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      if !j >= nb || (!i < na && a.values.(!i) < b.values.(!j)) then begin
        values.(!k) <- a.values.(!i);
        counts.(!k) <- a.counts.(!i);
        incr i; incr k
      end
      else if !i >= na || b.values.(!j) < a.values.(!i) then begin
        values.(!k) <- b.values.(!j);
        counts.(!k) <- b.counts.(!j);
        incr j; incr k
      end
      else begin
        values.(!k) <- a.values.(!i);
        counts.(!k) <- a.counts.(!i) + b.counts.(!j);
        incr i; incr j; incr k
      end
    done;
    { values = Array.sub values 0 !k;
      counts = Array.sub counts 0 !k;
      total = a.total + b.total }
  end

(* Nearest-rank: the smallest value whose cumulative count reaches
   ceil(p/100 * total), clamped to [1, total]. The epsilon absorbs binary
   representation error in p (99.9/100 * 1000 evaluates slightly above 999,
   which must not round up to rank 1000). *)
let percentile t p =
  if t.total = 0 then invalid_arg "Latency.percentile: empty distribution";
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Latency.percentile: p must lie in [0, 100]";
  let rank =
    let r =
      int_of_float
        (Float.ceil ((p /. 100. *. float_of_int t.total) -. 1e-9))
    in
    max 1 (min t.total r)
  in
  let i = ref 0 and seen = ref 0 in
  while !seen + t.counts.(!i) < rank do
    seen := !seen + t.counts.(!i);
    incr i
  done;
  t.values.(!i)

let p50 t = percentile t 50.
let p99 t = percentile t 99.
let p999 t = percentile t 99.9

let max_value t =
  if t.total = 0 then invalid_arg "Latency.max_value: empty distribution";
  t.values.(Array.length t.values - 1)

let sum t =
  let acc = ref 0 in
  Array.iteri (fun i v -> acc := !acc + (v * t.counts.(i))) t.values;
  !acc

let mean t =
  if t.total = 0 then invalid_arg "Latency.mean: empty distribution";
  float_of_int (sum t) /. float_of_int t.total

let equal a b =
  a.total = b.total
  && a.values = b.values
  && a.counts = b.counts

let pp ppf t =
  if t.total = 0 then Format.fprintf ppf "no requests"
  else
    Format.fprintf ppf
      "%d requests, p50 %d / p99 %d / p99.9 %d cycles (mean %.1f)" t.total
      (p50 t) (p99 t) (p999 t) (mean t)

module Builder = struct
  type dist = t

  type t = { mutable samples : int array; mutable len : int }

  let create ?(initial_capacity = 64) () =
    { samples = Array.make (max 1 initial_capacity) 0; len = 0 }

  let push t x =
    if x < 0 then invalid_arg "Latency.Builder.push: negative latency";
    if t.len = Array.length t.samples then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.samples 0 bigger 0 t.len;
      t.samples <- bigger
    end;
    t.samples.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  (* Ascending LSD radix sort, a byte per pass over the bytes the largest
     sample uses ([push] keeps samples non-negative). A request replay
     builds one distribution over every request, and the stdlib sort calls
     a comparison closure per step; [of_samples] keeps the stdlib sort and
     is the reference [build] is tested against. *)
  let radix_sort a =
    let n = Array.length a in
    let top = Array.fold_left Int.max 0 a in
    let count = Array.make 256 0 in
    let src = ref a and dst = ref (Array.make n 0) in
    let shift = ref 0 in
    while !shift < Sys.int_size && top lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 256 0;
      for i = 0 to n - 1 do
        let b = (s.(i) lsr sh) land 255 in
        count.(b) <- count.(b) + 1
      done;
      let sum = ref 0 in
      for b = 0 to 255 do
        let c = count.(b) in
        count.(b) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let v = s.(i) in
        let b = (v lsr sh) land 255 in
        d.(count.(b)) <- v;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + 8
    done;
    if !src != a then Array.blit !src 0 a 0 n

  let build t : dist =
    let sorted = Array.sub t.samples 0 t.len in
    radix_sort sorted;
    of_sorted_samples sorted
end
