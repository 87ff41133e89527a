(* The event-driven timing engine: a core clock plus an MSHR file and a
   banked DRAM. Each request walks a small FSM:

     probe -> hit                    retire at probe completion
     probe -> delayed hit (merge)    retire when the in-flight fill lands
     probe -> miss -> [writeback] -> fetch -> fill   retire at fill

   Only the probe (and structural MSHR stalls) advance the core clock;
   fills proceed in the DRAM while younger requests issue, which is where
   memory-level parallelism comes from. Functional cache state lives in
   {!System} and is updated in program order, so this module prices time
   and never decides hits or misses. *)

type config = {
  mlp : int;
  dram : Dram.config;
}

let config ?(mlp = 4) ?(dram = Dram.default_config) () =
  if mlp < 1 then invalid_arg "Event.config: mlp must be at least 1";
  { mlp; dram }

let default_config = config ()

type t = {
  timing : Timing.t;
  mshr : Mshr.t;
  dram : Dram.t;
  mutable now : int; (* core clock: when the next request can issue *)
  mutable drain : int; (* latest retire time seen *)
}

let create timing cfg =
  {
    timing;
    mshr = Mshr.create ~size:cfg.mlp;
    dram = Dram.create timing cfg.dram;
    now = 0;
    drain = 0;
  }

let now t = t.now
let elapse t n = t.now <- t.now + n

let retire_at t time =
  if time > t.drain then t.drain <- time;
  time

(* A hit pays the probe; if the line's fill is still in flight the request
   merges into the MSHR entry and retires when the fill lands (a delayed
   hit) without stalling the core. A merge shows as a step in [merges]. *)
let hit t ~line =
  t.now <- t.now + t.timing.Timing.hit_cycles;
  let fill_done = Mshr.in_flight t.mshr ~now:t.now ~line in
  if fill_done >= 0 then begin
    Mshr.note_merge t.mshr;
    retire_at t fill_done
  end
  else retire_at t t.now

(* A miss pays the probe, waits for an MSHR (stalling the core when all are
   busy), then fills from L2 or through DRAM — writing the dirty victim
   back before the demand fetch (writeback-allocate order, as in the
   hardware controller FSM this mirrors). *)
let miss t ~line ~addr ~victim ~l2_hit =
  t.now <- t.now + t.timing.Timing.hit_cycles;
  let ready = Mshr.acquire t.mshr ~now:t.now in
  if ready > t.now then t.now <- ready;
  let fill_done =
    if l2_hit then ready + t.timing.Timing.l2_hit_cycles
    else
      let fetch_at =
        if victim >= 0 then Dram.request t.dram ~now:ready ~addr:victim
        else ready
      in
      Dram.request t.dram ~now:fetch_at ~addr
  in
  Mshr.commit t.mshr ~line ~fill_done;
  retire_at t fill_done

(* Prefetches consume DRAM bandwidth (they occupy a bank and a queue slot)
   but never block the core or retire a request. *)
let prefetch t ~addr = ignore (Dram.request t.dram ~now:t.now ~addr : int)

let finish t = max t.now t.drain
let merges t = Mshr.merges t.mshr
let mshr_stalls t = Mshr.stalls t.mshr
let dram_stats t = Dram.stats t.dram
