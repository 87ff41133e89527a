(* A miss-status holding register file as a pure timing structure: each
   entry remembers which cache line it is filling and when the fill
   completes. The functional cache state is updated in program order by the
   caller (the line is resident the instant the miss is processed), so the
   MSHR never affects hit/miss outcomes — only when requests retire. *)

type t = {
  size : int;
  lines : int array; (* line being filled by each slot; min_int = never used *)
  fill_done : int array; (* completion time of each slot's fill *)
  mutable latest : int; (* latest committed fill completion *)
  mutable acquired : int; (* slot handed out by the last [acquire] *)
  mutable allocations : int;
  mutable merges : int;
  mutable stalls : int;
}

let create ~size =
  if size < 1 then invalid_arg "Mshr.create: size must be at least 1";
  {
    size;
    lines = Array.make size min_int;
    fill_done = Array.make size min_int;
    latest = min_int;
    acquired = -1;
    allocations = 0;
    merges = 0;
    stalls = 0;
  }

let size t = t.size

(* A line is in flight when some slot is filling it and the fill has not
   yet completed at [now]. Later commits for the same line overwrite older
   (already completed) entries only by slot reuse, so scanning for any
   not-yet-done entry is exact. When the latest committed fill is done by
   [now], every fill is, and the scan is skipped. *)
let rec scan_in_flight t ~now ~line i =
  if i >= t.size then -1
  else if
    Array.unsafe_get t.lines i = line && Array.unsafe_get t.fill_done i > now
  then Array.unsafe_get t.fill_done i
  else scan_in_flight t ~now ~line (i + 1)

let in_flight t ~now ~line =
  if t.latest <= now then -1 else scan_in_flight t ~now ~line 0

let note_merge t = t.merges <- t.merges + 1

(* Earliest slot available at or after [now]: a free slot (fill already
   done) is immediate; otherwise the request waits for the slot that
   drains first — a structural stall. *)
let acquire t ~now =
  let best = ref 0 in
  let best_done = ref t.fill_done.(0) in
  for i = 1 to t.size - 1 do
    if t.fill_done.(i) < !best_done then begin
      best := i;
      best_done := t.fill_done.(i)
    end
  done;
  t.allocations <- t.allocations + 1;
  t.acquired <- !best;
  let ready = max now !best_done in
  if ready > now then t.stalls <- t.stalls + 1;
  ready

let commit t ~line ~fill_done =
  let slot = t.acquired in
  if slot < 0 then invalid_arg "Mshr.commit: no slot acquired";
  t.acquired <- -1;
  t.lines.(slot) <- line;
  t.fill_done.(slot) <- fill_done;
  if fill_done > t.latest then t.latest <- fill_done

let allocations t = t.allocations
let merges t = t.merges
let stalls t = t.stalls
