module Access = Memtrace.Access
module Packed = Memtrace.Packed

type stream =
  | Uniform of { items : int }
  | Scan of { items : int }
  | Zipf of { items : int; theta : float }
  | Hot_set of {
      items : int;
      hot_items : int;
      hot_prob : float;
      drift_every : int;
    }
  | Phased of (int * stream) list

let rec items = function
  | Uniform { items } | Scan { items } | Zipf { items; _ }
  | Hot_set { items; _ } ->
      items
  | Phased phases ->
      List.fold_left (fun acc (_, s) -> max acc (items s)) 0 phases

let rec validate = function
  | Uniform { items } | Scan { items } ->
      if items < 1 then invalid_arg "Gen: items must be >= 1"
  | Zipf { items; theta } ->
      if items < 1 then invalid_arg "Gen: items must be >= 1";
      if not (theta >= 0.) then invalid_arg "Gen: theta must be >= 0"
  | Hot_set { items; hot_items; hot_prob; drift_every } ->
      if items < 1 then invalid_arg "Gen: items must be >= 1";
      if hot_items < 1 || hot_items > items then
        invalid_arg "Gen: hot_items must lie in 1..items";
      if not (hot_prob >= 0. && hot_prob <= 1.) then
        invalid_arg "Gen: hot_prob must lie in [0, 1]";
      if drift_every < 1 then invalid_arg "Gen: drift_every must be >= 1"
  | Phased phases ->
      if phases = [] then invalid_arg "Gen: Phased needs at least one phase";
      List.iter
        (fun (len, s) ->
          if len < 1 then invalid_arg "Gen: phase length must be >= 1";
          validate s)
        phases

(* Zipf CDF over ranks 0..items-1: cdf.(k) = H_{k+1}(theta) / H_items(theta).
   Sampling is one uniform double and a binary search for the first bucket
   whose cumulative mass covers it — exact, and deterministic given the
   splitmix64 stream. *)
let zipf_cdf ~item_count ~theta =
  let cdf = Array.make item_count 0. in
  let acc = ref 0. in
  for k = 0 to item_count - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !acc
  done;
  let h = !acc in
  Array.map (fun c -> c /. h) cdf

(* Keep the annotations: without them every probe boxes its float for a
   polymorphic compare. *)
let zipf_search (cdf : float array) (u : float) =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* One sampler = one closure over the generator's mutable position state.
   [perturb] is the harness's mutation hook: it offsets every Zipf rank by
   one WITHOUT re-clamping, so the top rank escapes the declared item range
   — the address-containment contract the soak checks then fails. *)
let rec sampler rng ~perturb stream =
  match stream with
  | Uniform { items } -> fun () -> Prng.int rng items
  | Scan { items } ->
      let pos = ref (-1) in
      fun () ->
        pos := (!pos + 1) mod items;
        !pos
  | Zipf { items; theta } ->
      let cdf = zipf_cdf ~item_count:items ~theta in
      fun () ->
        let k = zipf_search cdf (Prng.float rng) in
        if perturb then k + 1 else k
  | Hot_set { items; hot_items; hot_prob; drift_every } ->
      let count = ref 0 in
      let start = ref 0 in
      fun () ->
        if !count > 0 && !count mod drift_every = 0 then
          start := (!start + hot_items) mod items;
        incr count;
        if Prng.chance rng hot_prob then
          (!start + Prng.int rng hot_items) mod items
        else Prng.int rng items
  | Phased phases ->
      let arr =
        Array.of_list
          (List.map (fun (len, s) -> (len, sampler rng ~perturb s)) phases)
      in
      let phase = ref 0 in
      let in_phase = ref 0 in
      fun () ->
        if !in_phase >= fst arr.(!phase) then begin
          phase := (!phase + 1) mod Array.length arr;
          in_phase := 0
        end;
        incr in_phase;
        (snd arr.(!phase)) ()

type trace = {
  packed : Packed.t;
  requests : (int * int) array;
  base : int;
  limit : int;
}

let check_layout ~base ~stride =
  if base < 0 then invalid_arg "Gen: base must be >= 0";
  if stride < 1 then invalid_arg "Gen: stride must be >= 1"

(* The access stream itself, decoupled from where it lands: [emit] collects
   it into a builder, the CLI's synth path streams it straight into a
   {!Packed.Writer} so traces far larger than RAM never materialize. Both
   consume the PRNG identically — per access one rank sample, one
   write-ratio draw, one gap draw — so a streamed file and an in-memory
   trace from the same seed are access-for-access equal. *)
let iter_accesses ?(perturb = false) ?(base = 0) ?(stride = 16)
    ?(write_ratio = 0.25) ~seed ~n stream f =
  validate stream;
  check_layout ~base ~stride;
  if n < 0 then invalid_arg "Gen: n must be >= 0";
  if not (write_ratio >= 0. && write_ratio <= 1.) then
    invalid_arg "Gen: write_ratio must lie in [0, 1]";
  let rng = Prng.create ~seed in
  let sample = sampler rng ~perturb stream in
  for _ = 1 to n do
    let item = sample () in
    let kind = if Prng.chance rng write_ratio then Access.Write else Access.Read in
    let gap = Prng.int rng 4 in
    f ~kind ~gap (base + (item * stride))
  done

let emit ?perturb ?(base = 0) ?(stride = 16) ?write_ratio
    ?(accesses_per_request = 1) ?var ~seed ~n stream =
  if accesses_per_request < 1 then
    invalid_arg "Gen.emit: accesses_per_request must be >= 1";
  (* sized to [n], so [build] takes the columns without a copy *)
  let b = Packed.Builder.create ~initial_capacity:n () in
  let var =
    Option.fold ~none:Packed.Builder.untagged ~some:(Packed.Builder.var b) var
  in
  iter_accesses ?perturb ~base ~stride ?write_ratio ~seed ~n stream
    (fun ~kind ~gap addr -> Packed.Builder.push b ~kind ~var ~gap addr);
  let apr = accesses_per_request in
  let n_requests = (n + apr - 1) / apr in
  let requests =
    Array.init n_requests (fun k -> (k * apr, min n ((k + 1) * apr)))
  in
  { packed = Packed.Builder.build b; requests; base;
    limit = base + (items stream * stride) }

(* Synthetic KV store: [buckets] chain heads, [keys] chain nodes, and a
   [value_lines]-line value per key. One request = read the head of the
   key's bucket, walk the chain up to the key's node, then walk the value
   sequentially (the last line is a write for an "update" fraction of
   requests). Keys are drawn Zipf(theta); the bucket assignment is salted by
   the seed so chain shapes vary between seeds but never within one. *)
let kv ?(perturb = false) ?(base = 0) ?(theta = 0.99) ~seed ~requests:n_req
    ~keys ~buckets ~value_lines () =
  if keys < 1 then invalid_arg "Gen.kv: keys must be >= 1";
  if buckets < 1 then invalid_arg "Gen.kv: buckets must be >= 1";
  if value_lines < 1 then invalid_arg "Gen.kv: value_lines must be >= 1";
  if n_req < 0 then invalid_arg "Gen.kv: requests must be >= 0";
  if base < 0 then invalid_arg "Gen.kv: base must be >= 0";
  let heads_base = base in
  let entries_base = heads_base + (buckets * 8) in
  let values_base = entries_base + (keys * 16) in
  let limit = values_base + (keys * value_lines * 16) in
  let rng = Prng.create ~seed in
  let salt = Prng.int rng 1_000_000 in
  let bucket_of =
    Array.init keys (fun k -> Hashtbl.hash (salt, k) mod buckets)
  in
  (* chain position of each key within its bucket, in key order *)
  let chain_len = Array.make buckets 0 in
  let chain_pos =
    Array.init keys (fun k ->
        let b = bucket_of.(k) in
        let p = chain_len.(b) in
        chain_len.(b) <- p + 1;
        p)
  in
  (* chain.(b) lists the keys of bucket b in chain order *)
  let chain = Array.map (fun len -> Array.make len 0) chain_len in
  Array.iteri (fun k p -> chain.(bucket_of.(k)).(p) <- k) chain_pos;
  let key_sampler = sampler rng ~perturb (Zipf { items = keys; theta }) in
  let b = Packed.Builder.create ~initial_capacity:(max 16 (n_req * 4)) () in
  let kv_heads = Packed.Builder.var b "kv_heads" in
  let kv_entries = Packed.Builder.var b "kv_entries" in
  let kv_values = Packed.Builder.var b "kv_values" in
  let push kind var addr =
    Packed.Builder.push b ~kind ~var ~gap:(Prng.int rng 2) addr
  in
  let requests = Array.make n_req (0, 0) in
  for r = 0 to n_req - 1 do
    let start = Packed.Builder.length b in
    let k = key_sampler () in
    if k >= keys then
      (* perturbed escape: a probe of a key slot that does not exist — one
         access past the declared range, the containment violation the
         harness must catch *)
      push Access.Read kv_entries (entries_base + (k * 16))
    else begin
      let bucket = bucket_of.(k) in
      push Access.Read kv_heads (heads_base + (bucket * 8));
      for p = 0 to chain_pos.(k) do
        push Access.Read kv_entries (entries_base + (chain.(bucket).(p) * 16))
      done;
      let update = Prng.chance rng 0.3 in
      for v = 0 to value_lines - 1 do
        let kind =
          if update && v = value_lines - 1 then Access.Write else Access.Read
        in
        push kind kv_values (values_base + ((k * value_lines) + v) * 16)
      done
    end;
    requests.(r) <- (start, Packed.Builder.length b)
  done;
  { packed = Packed.Builder.build b; requests; base; limit }

let out_of_range t =
  let n = Packed.length t.packed in
  let addrs = Packed.raw_addrs t.packed in
  let rec go i =
    if i >= n then None
    else
      let a = Bigarray.Array1.unsafe_get addrs i in
      if a < t.base || a >= t.limit then Some i else go (i + 1)
  in
  go 0

let pp_stream ppf s =
  let rec go ppf = function
    | Uniform { items } -> Format.fprintf ppf "uniform(%d)" items
    | Scan { items } -> Format.fprintf ppf "scan(%d)" items
    | Zipf { items; theta } ->
        Format.fprintf ppf "zipf(%d, theta=%.2f)" items theta
    | Hot_set { items; hot_items; hot_prob; drift_every } ->
        Format.fprintf ppf "hotset(%d, hot=%d@@%.2f, drift=%d)" items
          hot_items hot_prob drift_every
    | Phased phases ->
        Format.fprintf ppf "phased[%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
             (fun ppf (len, s) -> Format.fprintf ppf "%d:%a" len go s))
          phases
  in
  go ppf s
