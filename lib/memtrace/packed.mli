(** Packed, struct-of-arrays trace storage.

    Semantically a {!Trace.t} — the same accesses in the same order — but
    stored as parallel unboxed columns: addresses and instruction gaps as
    Bigarray ints, kinds in one byte each, and variable tags as indices into
    a small interned name table. Conversion to and from the boxed form is
    lossless ({!of_trace} / {!to_trace} round-trip exactly), and the raw
    columns are exposed for the machine's batched replay loop, which walks
    them without allocating.

    Because the columns are Bigarrays they can also be views of an mmapped
    file: {!write_file} serializes a trace into a versioned binary format
    with page-aligned columns, and {!map_file} maps one back without reading
    it into memory — a multi-gigabyte trace replays in bounded RSS, the
    kernel paging the columns behind the loops. {!Writer} streams a trace of
    known length straight to disk so one larger than RAM can even be
    generated without ever materializing it. *)

type t

type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One 64-bit little-endian OCaml int per access. *)

type byte_col =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One byte per access. *)

val length : t -> int
val is_empty : t -> bool

val addr : t -> int -> int
val gap : t -> int -> int
val kind : t -> int -> Access.kind
val var : t -> int -> string option
(** Bounds-checked per-field accessors; raise [Invalid_argument] when the
    index is out of range. *)

val get : t -> int -> Access.t
(** Reconstruct the boxed access at an index. *)

val kind_code : Access.kind -> int
(** [Read] = 0, [Write] = 1, [Ifetch] = 2 — the byte stored in
    {!raw_kinds}. *)

val kind_of_code : int -> Access.kind
(** Inverse of {!kind_code}; raises [Invalid_argument] on other values. *)

val kind_at : byte_col -> int -> Access.kind
(** [kind_at (raw_kinds t) i] decodes access [i]'s kind byte — the one
    decoder every reader of the kind column uses. Raises [Invalid_argument]
    ["Packed: access i has kind byte c (expected 0-2)"] on a byte outside
    0-2, which a corrupt mapped file can hold. [i] is not bounds-checked. *)

val check_kinds : t -> pos:int -> stop:int -> unit
(** Decode the kinds of accesses [pos .. stop - 1] with {!kind_at},
    raising on the first bad byte. Every reader runs it over its range
    before it changes any state, so a rejected trace leaves engines and
    machines as they were. Raises [Invalid_argument] when the range falls
    outside the trace. *)

val raw_addrs : t -> int_col
val raw_gaps : t -> int_col
val raw_kinds : t -> byte_col
val raw_tags : t -> int_col
(** The backing columns, for zero-overhead replay loops; entries of
    {!raw_tags} are indices into {!var_table}, [-1] for untagged accesses.
    Callers must not mutate any of them. *)

val var_table : t -> string array
(** Distinct variable names in order of first appearance. Callers must not
    mutate it. *)

val instructions : t -> int
(** Total instructions represented: sum of [gap + 1] over all accesses. *)

val sub : t -> pos:int -> len:int -> t
(** O(1) view of [len] accesses starting at [pos]: the columns are
    Bigarray sub-views sharing the parent's storage (mmapped traces
    included) and the var table is shared. Raises [Invalid_argument] when
    the slice falls outside the trace. *)

val of_trace : Trace.t -> t
val to_trace : t -> Trace.t
val of_list : Access.t list -> t
val to_list : t -> Access.t list

val iter : (Access.t -> unit) -> t -> unit
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Accumulates accesses in O(1) amortized time directly into the packed
    columns, so workload generators emit without building per-access heap
    records first.

    Every access goes through {!push}, which takes its variable as a
    {!var} handle resolved once per name: the per-access path does no
    hashing and allocates nothing except when the columns grow. {!emit} and
    {!add} resolve the name on each call and then push.

    Size the builder to the trace when the length is known: {!build} then
    hands the columns over without copying them. *)
module Builder : sig
  type packed := t
  type t

  val create : ?initial_capacity:int -> unit -> t

  type var
  (** A variable name resolved against one builder; meaningless for any
      other builder. *)

  val untagged : var
  (** The handle of untagged accesses, valid for every builder. *)

  val var : t -> string -> var
  (** [var b name] resolves [name] for any number of {!push}es. The name
      enters the var table at the first access pushed with it, not here, so
      resolving names ahead of use keeps the table in first-appearance
      order. *)

  val push : t -> kind:Access.kind -> var:var -> gap:int -> int -> unit
  (** Append one access. Same validation as {!Access.make}: negative
      addresses and negative gaps are rejected with [Invalid_argument]
      (the messages name [Packed.Builder.emit]). *)

  val emit : t -> ?kind:Access.kind -> ?var:string -> ?gap:int -> int -> unit
  (** {!push} with [var] resolved on this call; [kind] defaults to [Read],
      [gap] to 0. *)

  val add : t -> Access.t -> unit
  val length : t -> int

  val build : t -> packed
  (** The accesses pushed so far. When they fill the builder's columns
      exactly (as they do in a builder created with [initial_capacity] equal
      to the final length) the trace takes those columns without a copy;
      otherwise it gets exact-size copies. Either way later pushes never
      write into a built trace: a full builder grows into fresh columns
      first. *)
end

(** {2 The binary trace file format}

    A 4096-byte header page (magic, version, access count, column offsets,
    a byte-order probe), then the four columns at page-aligned offsets so
    each can be mmapped directly, then the interned variable table as a
    length-prefixed blob. Integers are 64-bit little-endian words. The full
    field-by-field layout is documented at the top of the implementation. *)

val magic : string
(** The 16-byte magic the header page starts with. *)

val is_packed_file : string -> bool
(** Whether the file starts with {!magic} — cheap format sniffing, so
    loaders can dispatch between this format and the text one
    ({!Trace_file}). [false] for files shorter than the magic; raises
    [Sys_error] when the file cannot be opened. *)

val write_file : string -> t -> unit
(** Serialize the whole trace to a file in the binary format. Overwrites. *)

val map_file : string -> t
(** Map a file written by {!write_file} (or {!Writer}) without loading it:
    the returned columns are read-only views of the file's pages, so traces
    far larger than RAM replay in bounded memory. The header is validated
    first — wrong magic, an unsupported version, offsets disagreeing with
    the recomputed layout, a truncated file, or a byte-order probe mismatch
    all raise [Invalid_argument] naming the path. Callers must not mutate
    the returned columns (shared with every other mapping of the file). *)

(** Streams accesses of a trace of known length straight to disk in the
    binary format, in O(1) memory — for synthesizing traces larger than
    RAM. Column offsets depend only on the length, so each column is an
    independent buffered stream over the same file; the header and variable
    table are fixed up on {!Writer.close}. *)
module Writer : sig
  type t

  val chunk : int
  (** Accesses each column buffers between writes to its stream. The file
      is byte-identical to {!write_file}'s, whatever the trace's length. *)

  val create : string -> length:int -> t
  (** Start writing a trace of exactly [length] accesses. Overwrites. *)

  val emit : t -> ?kind:Access.kind -> ?var:string -> ?gap:int -> int -> unit
  (** Append one access; same validation as {!Builder.emit}, plus
      [Invalid_argument] when the declared length would be exceeded. *)

  val add : t -> Access.t -> unit
  val emitted : t -> int

  val close : t -> unit
  (** Flush the columns and write the final header and variable table.
      Raises [Invalid_argument] if fewer than [length] accesses were
      emitted (the file is left unusable — its header is never written). *)
end
