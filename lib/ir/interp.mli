(** Executing IF programs to produce memory traces.

    The interpreter maintains real data (every variable is an int cell or
    int array), so data-dependent control flow runs on actual values; each
    [Scalar]/[Load]/[Store]/[Assign_scalar] emits one tagged memory access
    at the address assigned by the data layout. ALU and control operations
    accumulate into the next access's [gap], so traces carry a realistic
    instruction count and the machine model can report CPI.

    A run resolves every name the entry procedure reaches before it
    executes anything: variables to their cells, layout base and trace tag,
    registers to slots of a register file, calls to the callee's resolved
    body. Execution then does no lookup by name, and an access allocates
    nothing beyond the growth of the trace's columns. A name that does not
    resolve fails only when execution reaches it, with the error a
    statement-by-statement walk of the tree would raise there. *)

exception Interp_error of string

val sequential_layout : ?base:int -> ?align:int -> Ast.program -> (string * int) list
(** Place variables back to back in declaration order, each aligned to
    [align] (default 16) bytes, starting at [base] (default 0). This is the
    "whatever the linker did" baseline; the layout pass produces better
    placements. *)

val address_of : layout:(string * int) list -> Ast.program -> string -> int -> int
(** Address of element [idx] of a variable under a layout. Raises
    {!Interp_error} for unknown variables or out-of-bounds indices. *)

type result = {
  trace : Memtrace.Trace.t;
  memory : string -> int array;
      (** final contents of each variable (a copy); raises [Not_found] for
          unknown names *)
}

val run :
  ?init:(string -> int -> int) ->
  ?max_steps:int ->
  Ast.program ->
  proc:string ->
  layout:(string * int) list ->
  result
(** Execute [proc]. [init name idx] supplies initial element values
    (default all zero). [max_steps] (default 50 million) bounds executed
    statements; exceeding it raises {!Interp_error}, catching runaway
    [While] loops. The program must already be valid (see
    {!Ast.validate}). *)

val run_packed :
  ?init:(string -> int -> int) ->
  ?max_steps:int ->
  Ast.program ->
  proc:string ->
  layout:(string * int) list ->
  Memtrace.Packed.t * (string -> int array)
(** {!run} with the trace in the columnar form the interpreter emits into,
    and the final [memory]. *)

val trace_of :
  ?init:(string -> int -> int) ->
  Ast.program ->
  proc:string ->
  layout:(string * int) list ->
  Memtrace.Trace.t
(** [run] and keep only the trace. *)

val packed_trace_of :
  ?init:(string -> int -> int) ->
  ?max_steps:int ->
  Ast.program ->
  proc:string ->
  layout:(string * int) list ->
  Memtrace.Packed.t
(** {!run_packed} keeping only the trace, with no boxed [Access.t] built
    along the way — feed it to {!Machine.System.run_packed}. *)
