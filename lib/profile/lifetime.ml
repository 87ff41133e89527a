type summary = {
  accesses : float;
  first : int;
  last : int;
  positions : int array option;
}

let summary ?positions ~accesses ~first ~last () =
  if last < first then invalid_arg "Lifetime.summary: last < first";
  if accesses < 0. then invalid_arg "Lifetime.summary: negative accesses";
  (match positions with
  | None -> ()
  | Some ps ->
      let n = Array.length ps in
      for i = 0 to n - 2 do
        if ps.(i) > ps.(i + 1) then
          invalid_arg "Lifetime.summary: positions not ascending"
      done;
      if n > 0 && (ps.(0) < first || ps.(n - 1) > last) then
        invalid_arg "Lifetime.summary: positions outside lifetime");
  { accesses; first; last; positions }

type rule =
  | Skip
  | Whole
  | Split of {
      base : int;
      chunk : int;
    }

(* One bucket's access positions, in a growable int array. *)
type bucket = {
  name : string;
  mutable at : int array;
  mutable count : int;
}

(* What a tag of one trace profiles into, decided at its first access. *)
type tag_state =
  | Unseen
  | Skipped
  | Into of bucket
  | Chunked of {
      name : string;
      base : int;
      chunk : int;
      buckets : (int, bucket) Hashtbl.t;  (* by chunk index *)
    }

let of_packed_classified traces ~rule =
  let by_name = Hashtbl.create 16 in
  let order = ref [] in
  let bucket_of name =
    match Hashtbl.find_opt by_name name with
    | Some b -> b
    | None ->
        let b = { name; at = Array.make 16 0; count = 0 } in
        Hashtbl.add by_name name b;
        order := b :: !order;
        b
  in
  let record b pos =
    if b.count = Array.length b.at then begin
      let bigger = Array.make (2 * b.count) 0 in
      Array.blit b.at 0 bigger 0 b.count;
      b.at <- bigger
    end;
    b.at.(b.count) <- pos;
    b.count <- b.count + 1
  in
  let chunk_bucket name buckets k =
    match Hashtbl.find buckets k with
    | b -> b
    | exception Not_found ->
        let b = bucket_of (Printf.sprintf "%s#%d" name k) in
        Hashtbl.add buckets k b;
        b
  in
  let offset = ref 0 in
  List.iter
    (fun trace ->
      let names = Memtrace.Packed.var_table trace in
      let states = Array.make (Array.length names) Unseen in
      let tags = Memtrace.Packed.raw_tags trace in
      let addrs = Memtrace.Packed.raw_addrs trace in
      for i = 0 to Memtrace.Packed.length trace - 1 do
        let tag = Bigarray.Array1.unsafe_get tags i in
        if tag >= 0 then begin
          let state =
            match states.(tag) with
            | Unseen ->
                let name = names.(tag) in
                let s =
                  match rule name with
                  | Skip -> Skipped
                  | Whole -> Into (bucket_of name)
                  | Split { base; chunk } ->
                      Chunked { name; base; chunk; buckets = Hashtbl.create 8 }
                in
                states.(tag) <- s;
                s
            | s -> s
          in
          match state with
          | Unseen | Skipped -> ()
          | Into b -> record b (!offset + i)
          | Chunked c ->
              let k = (Bigarray.Array1.unsafe_get addrs i - c.base) / c.chunk in
              record (chunk_bucket c.name c.buckets k) (!offset + i)
        end
      done;
      offset := !offset + Memtrace.Packed.length trace)
    traces;
  List.rev_map
    (fun b ->
      let ps = Array.sub b.at 0 b.count in
      ( b.name,
        {
          accesses = float_of_int b.count;
          first = ps.(0);
          last = ps.(b.count - 1);
          positions = Some ps;
        } ))
    !order

let of_packed traces = of_packed_classified traces ~rule:(fun _ -> Whole)
let of_trace trace = of_packed [ Memtrace.Packed.of_trace trace ]

let live_at s pos = pos >= s.first && pos <= s.last

let overlap a b =
  let lo = max a.first b.first and hi = min a.last b.last in
  if lo > hi then None else Some (lo, hi)

(* Index of the first element >= x in an ascending array. *)
let lower_bound ps x =
  let rec loop lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ps.(mid) < x then loop (mid + 1) hi else loop lo mid
  in
  loop 0 (Array.length ps)

let accesses_within s ~lo ~hi =
  if hi < lo then 0.
  else
    match s.positions with
    | Some ps ->
        let i = lower_bound ps lo and j = lower_bound ps (hi + 1) in
        float_of_int (j - i)
    | None ->
        let span = float_of_int (s.last - s.first + 1) in
        let lo = max lo s.first and hi = min hi s.last in
        if hi < lo then 0.
        else s.accesses *. (float_of_int (hi - lo + 1) /. span)

let weight a b =
  match overlap a b with
  | None -> 0
  | Some (lo, hi) ->
      let na = accesses_within a ~lo ~hi and nb = accesses_within b ~lo ~hi in
      int_of_float (Float.round (Float.min na nb))

let pp_summary ppf s =
  Format.fprintf ppf "accesses=%.1f lifetime=[%d,%d]%s" s.accesses s.first
    s.last
    (match s.positions with None -> " (estimated)" | Some _ -> "")
