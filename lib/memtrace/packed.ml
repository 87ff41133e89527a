(* Struct-of-arrays trace storage. The boxed [Access.t array] form keeps one
   heap block per access (plus an option per tagged access); replaying a
   multi-megabyte trace through it is bound by pointer chasing. Here the four
   fields live in parallel unboxed columns — Bigarray ints for addresses and
   gaps, one byte per access for the kind, and an int index into a small
   interned variable table — so the machine's batched replay loop touches
   only flat off-heap arrays. Bigarray backing also means a column can be a
   view of an mmapped file: traces far larger than RAM replay in bounded
   memory, the kernel paging columns in and out behind the loops. *)

type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type byte_col =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_int_col n : int_col =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make_byte_col n : byte_col =
  Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

type t = {
  len : int;
  addrs : int_col;
  gaps : int_col;
  kinds : byte_col; (* '\000' Read, '\001' Write, '\002' Ifetch *)
  tags : int_col; (* index into [vars]; -1 = untagged *)
  vars : string array; (* distinct variable names, first-appearance order *)
}

let length t = t.len
let is_empty t = t.len = 0

let kind_code = function
  | Access.Read -> 0
  | Access.Write -> 1
  | Access.Ifetch -> 2

let kind_of_code = function
  | 0 -> Access.Read
  | 1 -> Access.Write
  | 2 -> Access.Ifetch
  | c -> invalid_arg (Printf.sprintf "Packed.kind_of_code: %d" c)

(* The one decoder of the kind column: a byte outside 0-2 (possible in a
   corrupt mapped file) is rejected, never read as some kind. *)
let kind_at (kinds : byte_col) i =
  match Bigarray.Array1.unsafe_get kinds i with
  | '\000' -> Access.Read
  | '\001' -> Access.Write
  | '\002' -> Access.Ifetch
  | c ->
      invalid_arg
        (Printf.sprintf "Packed: access %d has kind byte %d (expected 0-2)" i
           (Char.code c))

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Packed: index out of bounds"

let check_kinds t ~pos ~stop =
  if pos < 0 || pos > stop || stop > t.len then
    invalid_arg "Packed.check_kinds: range out of bounds";
  for i = pos to stop - 1 do
    ignore (kind_at t.kinds i : Access.kind)
  done

let addr t i =
  check_index t i;
  t.addrs.{i}

let gap t i =
  check_index t i;
  t.gaps.{i}

let kind t i =
  check_index t i;
  kind_at t.kinds i

let var t i =
  check_index t i;
  let tag = t.tags.{i} in
  if tag < 0 then None else Some t.vars.(tag)

let get t i =
  check_index t i;
  Access.make
    ~kind:(kind_at t.kinds i)
    ?var:(let tag = t.tags.{i} in
          if tag < 0 then None else Some t.vars.(tag))
    ~gap:t.gaps.{i} t.addrs.{i}

let raw_addrs t = t.addrs
let raw_gaps t = t.gaps
let raw_kinds t = t.kinds
let raw_tags t = t.tags
let var_table t = t.vars

(* O(1) slice: Bigarray sub-views share the parent's storage (including
   mmapped columns), so epoch-sliced replay never copies the trace. The
   var table is shared whole; tags index into it unchanged. *)
let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Packed.sub: slice out of bounds";
  {
    len;
    addrs = Bigarray.Array1.sub t.addrs pos len;
    gaps = Bigarray.Array1.sub t.gaps pos len;
    kinds = Bigarray.Array1.sub t.kinds pos len;
    tags = Bigarray.Array1.sub t.tags pos len;
    vars = t.vars;
  }

let instructions t =
  let total = ref t.len in
  for i = 0 to t.len - 1 do
    total := !total + Bigarray.Array1.unsafe_get t.gaps i
  done;
  !total

(* The builder writes every access through [push]: the variable arrives as
   a handle resolved once per name, so the per-access path neither hashes
   nor allocates. A handle's var-table index is assigned at the first
   access pushed with it, which keeps the table in first-appearance order
   however early names are resolved. [build] hands the columns over
   without copying when they are exactly full; a later push then finds
   the builder full and grows into fresh columns, so a built trace is
   never written again. *)
module Builder = struct
  type packed = t
  type var = int

  (* [slots.(h)] is handle [h]'s var-table index; [unseen] until its first
     access. Handle 0 is [untagged] and always maps to -1. *)
  let unseen = -2
  let untagged = 0

  type t = {
    mutable len : int;
    mutable addrs : int_col;
    mutable gaps : int_col;
    mutable kinds : byte_col;
    mutable tags : int_col;
    handles : (string, var) Hashtbl.t;
    mutable names : string array; (* handle -> name; index 0 unused *)
    mutable slots : int array;
    mutable vars : string list; (* reversed first-appearance order *)
    mutable var_count : int;
  }

  let create ?(initial_capacity = 1024) () =
    let cap = max 1 initial_capacity in
    {
      len = 0;
      addrs = make_int_col cap;
      gaps = make_int_col cap;
      kinds = make_byte_col cap;
      tags = make_int_col cap;
      handles = Hashtbl.create 16;
      names = [| "" |];
      slots = [| -1 |];
      vars = [];
      var_count = 0;
    }

  let var b name =
    match Hashtbl.find_opt b.handles name with
    | Some h -> h
    | None ->
        let h = Hashtbl.length b.handles + 1 in
        if h = Array.length b.slots then begin
          let extend a fill =
            Array.append a (Array.make (Array.length a) fill)
          in
          b.names <- extend b.names "";
          b.slots <- extend b.slots unseen
        end;
        b.names.(h) <- name;
        b.slots.(h) <- unseen;
        Hashtbl.add b.handles name h;
        h

  let first_use b h =
    let tag = b.var_count in
    b.slots.(h) <- tag;
    b.vars <- b.names.(h) :: b.vars;
    b.var_count <- tag + 1;
    tag

  let grow b =
    let open Bigarray.Array1 in
    let cap = 2 * dim b.addrs in
    let copy_int (src : int_col) =
      let dst = make_int_col cap in
      blit (sub src 0 b.len) (sub dst 0 b.len);
      dst
    in
    b.addrs <- copy_int b.addrs;
    b.gaps <- copy_int b.gaps;
    b.tags <- copy_int b.tags;
    let kinds = make_byte_col cap in
    blit (sub b.kinds 0 b.len) (sub kinds 0 b.len);
    b.kinds <- kinds

  let push b ~kind ~var ~gap addr =
    if addr < 0 then invalid_arg "Packed.Builder.emit: negative address";
    if gap < 0 then invalid_arg "Packed.Builder.emit: negative gap";
    let tag = b.slots.(var) in
    let tag = if tag = unseen then first_use b var else tag in
    if b.len = Bigarray.Array1.dim b.addrs then grow b;
    let i = b.len in
    Bigarray.Array1.unsafe_set b.addrs i addr;
    Bigarray.Array1.unsafe_set b.gaps i gap;
    Bigarray.Array1.unsafe_set b.kinds i (Char.unsafe_chr (kind_code kind));
    Bigarray.Array1.unsafe_set b.tags i tag;
    b.len <- i + 1

  let var_opt b = function None -> untagged | Some name -> var b name

  let emit b ?(kind = Access.Read) ?var ?(gap = 0) addr =
    push b ~kind ~var:(var_opt b var) ~gap addr

  let add b (a : Access.t) =
    push b ~kind:a.kind ~var:(var_opt b a.var) ~gap:a.gap a.addr

  let length b = b.len

  let build b : packed =
    let vars = Array.of_list (List.rev b.vars) in
    if b.len = Bigarray.Array1.dim b.addrs then
      { len = b.len; addrs = b.addrs; gaps = b.gaps; kinds = b.kinds;
        tags = b.tags; vars }
    else
      let open Bigarray.Array1 in
      let copy_int (src : int_col) =
        let dst = make_int_col b.len in
        blit (sub src 0 b.len) dst;
        dst
      in
      let kinds = make_byte_col b.len in
      blit (sub b.kinds 0 b.len) kinds;
      {
        len = b.len;
        addrs = copy_int b.addrs;
        gaps = copy_int b.gaps;
        kinds;
        tags = copy_int b.tags;
        vars;
      }
end

let of_trace trace =
  let arr = Trace.raw trace in
  let b = Builder.create ~initial_capacity:(max 1 (Array.length arr)) () in
  Array.iter (fun a -> Builder.add b a) arr;
  Builder.build b

let of_list accesses =
  let b = Builder.create () in
  List.iter (fun a -> Builder.add b a) accesses;
  Builder.build b

let to_trace t = Trace.of_array (Array.init t.len (fun i -> get t i))
let to_list t = List.init t.len (fun i -> get t i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let equal a b =
  a.len = b.len
  && begin
       let rec check i =
         i >= a.len || (Access.equal (get a i) (get b i) && check (i + 1))
       in
       check 0
     end

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter (fun a -> Format.fprintf ppf "%a@," Access.pp a) t;
  Format.fprintf ppf "@]"

(* {2 The binary trace file format}

   One 4096-byte header page, then the four columns at page-aligned offsets
   so each can be handed to [Unix.map_file] directly, then the interned
   variable table as a length-prefixed blob:

     offset 0    magic     "colcache-packed\n"            (16 bytes)
            16   version   u64 LE, currently 1
            24   n         access count
            32   addrs_off byte offset of the address column (= 4096)
            40   gaps_off  byte offset of the gap column
            48   kinds_off byte offset of the kind column (1 byte/access)
            56   tags_off  byte offset of the tag column
            64   var_off   byte offset of the variable blob (= tags_off+8n)
            72   var_count interned variable names
            80   var_bytes total size of the variable blob
            88   probe     0x0123456789abcde, read back through an mmapped
                           int column to reject foreign byte order
            96.. zero padding to 4096

   Integer columns hold one OCaml int per access as a 64-bit
   little-endian word; the variable blob is [var_count] records of
   u64 LE length + raw name bytes. Every header field is validated on load
   — wrong magic, wrong version, offsets that disagree with the recomputed
   layout, or a file shorter than [var_off + var_bytes] all raise a clean
   [Invalid_argument] naming the path, never a crash or garbage stats. *)

let page = 4096
let magic = "colcache-packed\n"
let version = 1
let probe = 0x0123456789abcde
let align_page x = (x + (page - 1)) land lnot (page - 1)

type file_layout = {
  n : int;
  addrs_off : int;
  gaps_off : int;
  kinds_off : int;
  tags_off : int;
  var_off : int;
}

let layout_of_n n =
  let addrs_off = page in
  let gaps_off = align_page (addrs_off + (8 * n)) in
  let kinds_off = align_page (gaps_off + (8 * n)) in
  let tags_off = align_page (kinds_off + n) in
  let var_off = tags_off + (8 * n) in
  { n; addrs_off; gaps_off; kinds_off; tags_off; var_off }

let header_bytes lay ~var_count ~var_bytes =
  let b = Bytes.make page '\000' in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  let set off v = Bytes.set_int64_le b off (Int64.of_int v) in
  set 16 version;
  set 24 lay.n;
  set 32 lay.addrs_off;
  set 40 lay.gaps_off;
  set 48 lay.kinds_off;
  set 56 lay.tags_off;
  set 64 lay.var_off;
  set 72 var_count;
  set 80 var_bytes;
  set 88 probe;
  b

let var_blob vars =
  let buf = Buffer.create 256 in
  let len8 = Bytes.create 8 in
  Array.iter
    (fun v ->
      Bytes.set_int64_le len8 0 (Int64.of_int (String.length v));
      Buffer.add_bytes buf len8;
      Buffer.add_string buf v)
    vars;
  Buffer.contents buf

let reject path fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Packed: %s: %s" path msg))
    fmt

(* {2 Writing} *)

let output_int_col oc (col : int_col) n =
  let chunk = 8192 in
  let buf = Bytes.create (8 * chunk) in
  let i = ref 0 in
  while !i < n do
    let m = min chunk (n - !i) in
    for j = 0 to m - 1 do
      Bytes.set_int64_le buf (8 * j)
        (Int64.of_int (Bigarray.Array1.unsafe_get col (!i + j)))
    done;
    output_bytes oc (Bytes.sub buf 0 (8 * m));
    i := !i + m
  done

let output_byte_col oc (col : byte_col) n =
  let chunk = 65536 in
  let buf = Bytes.create chunk in
  let i = ref 0 in
  while !i < n do
    let m = min chunk (n - !i) in
    for j = 0 to m - 1 do
      Bytes.set buf j (Bigarray.Array1.unsafe_get col (!i + j))
    done;
    output_bytes oc (Bytes.sub buf 0 m);
    i := !i + m
  done

let pad_to oc target =
  let here = pos_out oc in
  if here > target then invalid_arg "Packed: internal layout overflow";
  if here < target then output_string oc (String.make (target - here) '\000')

let write_file path t =
  let blob = var_blob t.vars in
  let lay = layout_of_n t.len in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_bytes oc
        (header_bytes lay ~var_count:(Array.length t.vars)
           ~var_bytes:(String.length blob));
      output_int_col oc t.addrs t.len;
      pad_to oc lay.gaps_off;
      output_int_col oc t.gaps t.len;
      pad_to oc lay.kinds_off;
      output_byte_col oc t.kinds t.len;
      pad_to oc lay.tags_off;
      output_int_col oc t.tags t.len;
      output_string oc blob)

(* {2 Mapping} *)

let is_packed_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match really_input_string ic (String.length magic) with
      | head -> String.equal head magic
      | exception End_of_file -> false)

let really_read fd buf off len =
  let got = ref 0 in
  (try
     while !got < len do
       let r = Unix.read fd buf (off + !got) (len - !got) in
       if r = 0 then raise Exit;
       got := !got + r
     done
   with Exit -> ());
  !got

let map_int_col fd ~pos n : int_col =
  if n = 0 then make_int_col 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int
         Bigarray.c_layout false [| n |])

let map_byte_col fd ~pos n : byte_col =
  if n = 0 then make_byte_col 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.char
         Bigarray.c_layout false [| n |])

let read_var_table path fd ~var_off ~var_count ~var_bytes =
  ignore (Unix.lseek fd var_off Unix.SEEK_SET);
  let blob = Bytes.create var_bytes in
  if really_read fd blob 0 var_bytes < var_bytes then
    reject path "truncated variable table";
  let pos = ref 0 in
  Array.init var_count (fun _ ->
      if !pos + 8 > var_bytes then reject path "corrupt variable table";
      let len = Int64.to_int (Bytes.get_int64_le blob !pos) in
      if len < 0 || !pos + 8 + len > var_bytes then
        reject path "corrupt variable table";
      let v = Bytes.sub_string blob (!pos + 8) len in
      pos := !pos + 8 + len;
      v)

let map_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let hdr = Bytes.create page in
      if really_read fd hdr 0 page < page then
        reject path "truncated file (shorter than the %d-byte header)" page;
      if Bytes.sub_string hdr 0 (String.length magic) <> magic then
        reject path "bad magic (not a packed trace file)";
      let field off = Int64.to_int (Bytes.get_int64_le hdr off) in
      let v = field 16 in
      if v <> version then
        reject path "unsupported format version %d (expected %d)" v version;
      let n = field 24 in
      if n < 0 then reject path "corrupt header (negative access count)";
      let lay = layout_of_n n in
      if
        field 32 <> lay.addrs_off
        || field 40 <> lay.gaps_off
        || field 48 <> lay.kinds_off
        || field 56 <> lay.tags_off
        || field 64 <> lay.var_off
      then reject path "corrupt header (column offsets disagree with layout)";
      let var_count = field 72 in
      let var_bytes = field 80 in
      if var_count < 0 || var_bytes < 0 then
        reject path "corrupt header (negative variable table size)";
      let size = (Unix.fstat fd).Unix.st_size in
      if size < lay.var_off + var_bytes then
        reject path "truncated file (%d bytes, layout needs %d)" size
          (lay.var_off + var_bytes);
      (* Byte-order guard: re-read the probe field through the same mmapped
         int path the columns use; a big-endian writer or reader sees the
         bytes swapped and fails here rather than replaying garbage. *)
      let hdr_ints = map_int_col fd ~pos:0 (page / 8) in
      if hdr_ints.{11} <> probe then
        reject path "byte-order probe mismatch (foreign endianness?)";
      let vars =
        read_var_table path fd ~var_off:lay.var_off ~var_count ~var_bytes
      in
      {
        len = n;
        addrs = map_int_col fd ~pos:lay.addrs_off n;
        gaps = map_int_col fd ~pos:lay.gaps_off n;
        kinds = map_byte_col fd ~pos:lay.kinds_off n;
        tags = map_int_col fd ~pos:lay.tags_off n;
        vars;
      })

(* {2 Streaming writer} *)

module Writer = struct
  (* Accesses buffered per column: each column fills its own chunk and
     reaches its channel in one [output] call per chunk, not one per field
     (every channel call takes the channel's lock). *)
  let chunk = 1024

  type writer = {
    path : string;
    n : int;
    lay : file_layout;
    oc_addrs : out_channel;
    oc_gaps : out_channel;
    oc_kinds : out_channel;
    oc_tags : out_channel;
    buf_addrs : Bytes.t;
    buf_gaps : Bytes.t;
    buf_kinds : Bytes.t;
    buf_tags : Bytes.t;
    mutable buffered : int;
    intern : (string, int) Hashtbl.t;
    mutable vars : string list; (* reversed first-appearance order *)
    mutable var_count : int;
    mutable emitted : int;
    mutable closed : bool;
  }

  type t = writer

  let channel_at path fd_flags off =
    let fd = Unix.openfile path fd_flags 0o644 in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    Unix.out_channel_of_descr fd

  let create path ~length =
    if length < 0 then invalid_arg "Packed.Writer.create: negative length";
    let lay = layout_of_n length in
    (* First channel creates and truncates; the rest just seek to their
       column's offset — four independent buffered streams over one file. *)
    let oc_addrs =
      channel_at path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] lay.addrs_off
    in
    {
      path;
      n = length;
      lay;
      oc_addrs;
      oc_gaps = channel_at path [ Unix.O_WRONLY ] lay.gaps_off;
      oc_kinds = channel_at path [ Unix.O_WRONLY ] lay.kinds_off;
      oc_tags = channel_at path [ Unix.O_WRONLY ] lay.tags_off;
      buf_addrs = Bytes.create (8 * chunk);
      buf_gaps = Bytes.create (8 * chunk);
      buf_kinds = Bytes.create chunk;
      buf_tags = Bytes.create (8 * chunk);
      buffered = 0;
      intern = Hashtbl.create 16;
      vars = [];
      var_count = 0;
      emitted = 0;
      closed = false;
    }

  let flush_chunk w =
    let m = w.buffered in
    if m > 0 then begin
      output w.oc_addrs w.buf_addrs 0 (8 * m);
      output w.oc_gaps w.buf_gaps 0 (8 * m);
      output w.oc_kinds w.buf_kinds 0 m;
      output w.oc_tags w.buf_tags 0 (8 * m);
      w.buffered <- 0
    end

  let tag_of w = function
    | None -> -1
    | Some v -> (
        match Hashtbl.find_opt w.intern v with
        | Some i -> i
        | None ->
            let i = w.var_count in
            Hashtbl.add w.intern v i;
            w.vars <- v :: w.vars;
            w.var_count <- i + 1;
            i)

  let emit w ?(kind = Access.Read) ?var ?(gap = 0) addr =
    if w.closed then invalid_arg "Packed.Writer.emit: writer is closed";
    if addr < 0 then invalid_arg "Packed.Writer.emit: negative address";
    if gap < 0 then invalid_arg "Packed.Writer.emit: negative gap";
    if w.emitted >= w.n then
      invalid_arg
        (Printf.sprintf "Packed.Writer.emit: declared length %d exceeded" w.n);
    let i = w.buffered in
    Bytes.set_int64_le w.buf_addrs (8 * i) (Int64.of_int addr);
    Bytes.set_int64_le w.buf_gaps (8 * i) (Int64.of_int gap);
    Bytes.set w.buf_kinds i (Char.chr (kind_code kind));
    Bytes.set_int64_le w.buf_tags (8 * i) (Int64.of_int (tag_of w var));
    w.buffered <- i + 1;
    w.emitted <- w.emitted + 1;
    if w.buffered = chunk then flush_chunk w

  let add w (a : Access.t) = emit w ~kind:a.kind ?var:a.var ~gap:a.gap a.addr
  let emitted w = w.emitted

  let close w =
    if w.closed then invalid_arg "Packed.Writer.close: already closed";
    w.closed <- true;
    if w.emitted <> w.n then
      invalid_arg
        (Printf.sprintf "Packed.Writer.close: emitted %d of declared %d"
           w.emitted w.n);
    flush_chunk w;
    close_out w.oc_addrs;
    close_out w.oc_gaps;
    close_out w.oc_kinds;
    close_out w.oc_tags;
    let vars = Array.of_list (List.rev w.vars) in
    let blob = var_blob vars in
    let oc = channel_at w.path [ Unix.O_WRONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_bytes oc
          (header_bytes w.lay ~var_count:(Array.length vars)
             ~var_bytes:(String.length blob));
        (* seek, don't pad: the columns already live between here and
           [var_off] *)
        seek_out oc w.lay.var_off;
        output_string oc blob)
end
