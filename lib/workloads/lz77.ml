module Trace = Memtrace.Trace
module Access = Memtrace.Access

type token =
  | Literal of char
  | Match of { distance : int; length : int }

type result = {
  trace : Trace.t;
  tokens : token list;
  input : string;
}

let window_size = 8192
let hash_entries = 1024
let min_match = 3
let max_match = 32
let max_chain = 16
let max_compare = 16

(* Job-relative offsets of the data structures; page-aligned and disjoint. *)
let inbuf_off = 0x0000 (* up to 16 KiB of input *)
let window_off = 0x4000 (* window_size bytes *)
let head_off = 0x6000 (* hash_entries x 2 bytes *)
let prev_off = 0x6800 (* window_size x 2 bytes *)
let outbuf_off = 0xA800

let footprint_bytes =
  window_size (* window *) + (hash_entries * 2) + (window_size * 2)
  + 0x4000 (* inbuf *) + 0x2000 (* outbuf, nominal *)

let synthetic_input ~seed ~len =
  let vocabulary =
    [|
      "the"; "quick"; "embedded"; "cache"; "column"; "memory"; "stream";
      "buffer"; "packet"; "filter"; "signal"; "frame"; "block"; "processor";
    |]
  in
  let state = ref (Int64.of_int (if seed = 0 then 1 else seed)) in
  let next () =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    Int64.to_int (Int64.logand x 0x3FFFFFFFL)
  in
  let buf = Buffer.create len in
  while Buffer.length buf < len do
    let word = vocabulary.(next () mod Array.length vocabulary) in
    Buffer.add_string buf word;
    (* occasional repetition of a recent phrase boosts match rates *)
    if next () mod 4 = 0 then Buffer.add_string buf word;
    Buffer.add_char buf ' '
  done;
  String.sub (Buffer.contents buf) 0 len

let hash3 s pos =
  (Char.code s.[pos] lsl 6)
  lxor (Char.code s.[pos + 1] lsl 3)
  lxor Char.code s.[pos + 2]
  land (hash_entries - 1)

(* The job's variables; the compressor core names them by index. *)
let var_names = [| "inbuf"; "window"; "hash_head"; "hash_prev"; "outbuf" |]
let inbuf = 0
let window = 1
let hash_head = 2
let hash_prev = 3
let outbuf = 4

(* The compressor core is generic over the access sink: [emit kind var off]
   receives each access's kind, variable index and job-relative offset. It
   is deterministic, so [packed_of] runs it twice, once to count the
   accesses and once to fill a builder of exactly that size. It allocates
   nothing per access; only [keep_tokens] makes it collect the token
   stream. *)
let compress_core ~(emit : Access.kind -> int -> int -> unit) ~keep_tokens
    ~input =
  let len = String.length input in
  if len > 0x4000 then invalid_arg "Lz77.compress: input exceeds 16 KiB buffer";
  let read_in pos = emit Access.Read inbuf (inbuf_off + pos) in
  let read_window p = emit Access.Read window (window_off + (p mod window_size)) in
  let write_window p =
    emit Access.Write window (window_off + (p mod window_size))
  in
  let read_head h = emit Access.Read hash_head (head_off + (h * 2)) in
  let write_head h = emit Access.Write hash_head (head_off + (h * 2)) in
  let read_prev p = emit Access.Read hash_prev (prev_off + (p mod window_size * 2)) in
  let write_prev p =
    emit Access.Write hash_prev (prev_off + (p mod window_size * 2))
  in
  let write_out pos = emit Access.Write outbuf (outbuf_off + pos) in
  (* head.(h) = most recent position + 1 with that hash; prev chains
     positions within the window. *)
  let head = Array.make hash_entries 0 in
  let prev = Array.make window_size 0 in
  let tokens = ref [] in
  let insert pos =
    if pos + min_match <= len then begin
      let h = hash3 input pos in
      read_in pos;
      read_head h;
      prev.(pos mod window_size) <- head.(h);
      write_prev pos;
      head.(h) <- pos + 1;
      write_head h;
      write_window pos
    end
    else write_window pos
  in
  (* Compare at most [max_compare] bytes, never past [pos] into unwritten
     window bytes; each compared pair costs a window and an input read. *)
  let match_length cand pos =
    let avail = min (min max_compare (min max_match (len - pos))) (pos - cand) in
    let i = ref 0 and equal = ref true in
    while !equal && !i < avail do
      read_window (cand + !i);
      read_in (pos + !i);
      if input.[cand + !i] = input.[pos + !i] then incr i else equal := false
    done;
    !i
  in
  (* Length of the longest match along [pos]'s hash chain (the first of
     equal length wins), 0 if none; its position goes to [best_pos]. *)
  let best_pos = ref 0 in
  let find_match pos =
    if pos + min_match > len then 0
    else begin
      let h = hash3 input pos in
      read_in pos;
      read_head h;
      (* a stored position + 1 of 0 ends the chain *)
      let best_len = ref 0 and cpos = ref (head.(h) - 1) and chain = ref 0 in
      while
        !cpos >= 0 && !chain < max_chain && !cpos < pos
        && pos - !cpos <= window_size
      do
        let l = match_length !cpos pos in
        if l >= min_match && l > !best_len then begin
          best_pos := !cpos;
          best_len := l
        end;
        read_prev !cpos;
        cpos := prev.(!cpos mod window_size) - 1;
        incr chain
      done;
      !best_len
    end
  in
  let pos = ref 0 and outpos = ref 0 in
  while !pos < len do
    let p = !pos in
    let l = find_match p in
    if l > 0 then begin
      if keep_tokens then
        tokens := Match { distance = p - !best_pos; length = l } :: !tokens;
      write_out !outpos;
      outpos := !outpos + 3;
      for q = p to p + l - 1 do
        insert q
      done;
      pos := p + l
    end
    else begin
      read_in p;
      if keep_tokens then tokens := Literal input.[p] :: !tokens;
      write_out !outpos;
      incr outpos;
      insert p;
      pos := p + 1
    end
  done;
  List.rev !tokens

(* One exact-size allocation of the four columns: a counting pass sizes the
   builder, so it never grows and [build] hands its columns over. Every
   access carries an instruction gap of 2. *)
let packed_of ~keep_tokens ~base ~input =
  let count = ref 0 in
  ignore (compress_core ~emit:(fun _ _ _ -> incr count) ~keep_tokens:false ~input);
  let module B = Memtrace.Packed.Builder in
  let b = B.create ~initial_capacity:!count () in
  let vars = Array.map (B.var b) var_names in
  let tokens =
    compress_core ~keep_tokens ~input ~emit:(fun kind var off ->
        B.push b ~kind ~var:vars.(var) ~gap:2 (base + off))
  in
  (B.build b, tokens)

let compress ?(base = 0) ~input () =
  let packed, tokens = packed_of ~keep_tokens:true ~base ~input in
  { trace = Memtrace.Packed.to_trace packed; tokens; input }

let packed_trace ?(seed = 1) ?(input_len = 16384) ~base () =
  let input_len = min input_len 0x4000 in
  let input = synthetic_input ~seed ~len:input_len in
  fst (packed_of ~keep_tokens:false ~base ~input)

let trace ?(seed = 1) ?(input_len = 16384) ~base () =
  let input_len = min input_len 0x4000 in
  (compress ~base ~input:(synthetic_input ~seed ~len:input_len) ()).trace

let decompress tokens =
  let buf = Buffer.create 4096 in
  List.iter
    (fun token ->
      match token with
      | Literal c -> Buffer.add_char buf c
      | Match { distance; length } ->
          let start = Buffer.length buf - distance in
          if start < 0 then invalid_arg "Lz77.decompress: bad distance";
          for i = 0 to length - 1 do
            Buffer.add_char buf (Buffer.nth buf (start + i))
          done)
    tokens;
  Buffer.contents buf
