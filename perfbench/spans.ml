(* In-memory span recorder for the traced run. A span is one timed call
   into a colcache module, named "<layer>.<call>". Spans nest through a
   stack of open spans, carry the pass they belong to, and stay in memory
   until the run prints them. With recording off, [span] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  pass : int;
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let recording = ref false
let current_pass = ref 0
let next_id = ref 0
let open_stack : int list ref = ref []
let finished : t list ref = ref []

let start () = recording := true
let stop () = recording := false
let set_pass pass = current_pass := pass

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let t0 = now () in
    let close () =
      let t1 = now () in
      open_stack := List.tl !open_stack;
      finished :=
        { id; name; parent; pass = !current_pass; start = t0; stop = t1 }
        :: !finished
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !finished
let duration s = s.stop -. s.start
let children spans id = List.filter (fun s -> s.parent = id) spans

(* Self time: the span's duration minus the time its direct children
   cover. Children of one span never overlap (one domain), so their
   durations add. *)
let self_time spans s =
  duration s
  -. List.fold_left (fun acc c -> acc +. duration c) 0. (children spans s.id)

let to_json s =
  Printf.sprintf
    "{\"id\": %d, \"name\": %S, \"parent\": %d, \"pass\": %d, \"start\": \
     %.9f, \"stop\": %.9f}"
    s.id s.name s.parent s.pass s.start s.stop
