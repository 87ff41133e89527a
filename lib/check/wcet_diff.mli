(** Differential soundness check for {!Ir.Cache_analysis}.

    Each run generates a small random IF program from the analyzable core
    of the language (constant loop bounds, terminating counter-Whiles,
    clamped indices), a small random cache geometry, and compares the
    static analysis against a concrete replay of the interpreter's trace
    through {!Cache.Sassoc}:

    - the static access, write and miss bounds must each cover the
      concrete counts;
    - any variable whose every access site is classified always-hit must
      replay with zero misses.

    The planted {!Oracle.Wcet} mutation flips the must-domain join to an
    unsound union, which these checks catch within a handful of seeds. *)

val gen_program : Prng.t -> Ir.Ast.program
(** A random valid program from the analyzable core, the one each
    {!run_one} checks: constant loop bounds, terminating Whiles and clamped
    indices, so its procedure ["main"] never traps, whatever the variables'
    initial values. *)

val run_one : ?bug:Oracle.bug -> seed:int -> unit -> (unit, string) result
(** [run_one ~seed ()] is [Ok ()] when every bound holds; [Error detail]
    carries the seed, the violated bound and the program text.
    [~bug:Oracle.Wcet] runs the analysis with its intentionally unsound
    join (other bug values analyze faithfully). *)
