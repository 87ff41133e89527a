(** An instrumented LZ77 compressor: the stand-in for the paper's gzip jobs
    (Section 4.2).

    This is a real hash-chain LZ77 (the core of deflate) running over
    synthetic compressible text; every data-structure touch is emitted as a
    tagged memory access, so its trace exhibits gzip's characteristic mix —
    streaming reads of the input, a hot sliding window, and scattered
    hash-head/chain probes. The per-job footprint (window + hash tables +
    buffers, 50 KB with defaults) comfortably exceeds a 16 KB cache, which
    is what makes three concurrent jobs thrash it.

    Compression itself is checked by tests: {!compress} returns the token
    stream along with the trace, and {!decompress} must reconstruct the
    input exactly. *)

type token =
  | Literal of char
  | Match of { distance : int; length : int }

type result = {
  trace : Memtrace.Trace.t;
  tokens : token list;
  input : string;
}

val window_size : int
(** 8192 bytes of sliding window. *)

val hash_entries : int
(** 1024 hash-chain heads. *)

val footprint_bytes : int
(** Total bytes of all data structures (window, hash head, hash prev,
    in/out buffers). *)

val synthetic_input : seed:int -> len:int -> string
(** Deterministic text with repeated phrases, so matches actually occur. *)

val compress : ?base:int -> input:string -> unit -> result
(** Run the compressor, emitting the trace with addresses offset by [base]
    (distinct jobs use distinct bases so a shared cache sees them as
    different address spaces). *)

val trace : ?seed:int -> ?input_len:int -> base:int -> unit -> Memtrace.Trace.t
(** [compress] over a {!synthetic_input}; trace only. Default input length
    16 KiB. An [input_len] above 16 KiB, the compressor's input buffer, is
    clamped to 16 KiB without notice. A negative one raises
    [Invalid_argument]; 0 gives an empty trace. *)

val packed_trace :
  ?seed:int -> ?input_len:int -> base:int -> unit -> Memtrace.Packed.t
(** {!trace} in columnar form: the compressor emits straight into packed
    columns, with no boxed [Access.t] built along the way — feed it to
    {!Machine.System.run_packed}. It runs the compressor twice, first to
    count the accesses, then to fill columns allocated once at exactly
    that size. [input_len] is clamped as in {!trace}. *)

val decompress : token list -> string
