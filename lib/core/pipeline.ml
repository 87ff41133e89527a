type weight_method =
  | Profile_based
  | Program_analysis

(* Interpreting the IF program is by far the most expensive step of a
   configuration sweep, and every sweep point replays the same traces and
   re-derives the same regions. The memo caches them per pipeline value:
   one packed trace per procedure, which replay and profiling both read.
   Guarded by a mutex because the experiment runner shares nothing {e
   between} tasks but a future caller might share a pipeline across domains;
   computation happens outside the lock (trace interpretation is slow and
   the lock is shared), with the first finisher winning so all callers see
   one value. *)
type memo = {
  lock : Mutex.t;
  packed : (string, Memtrace.Packed.t) Hashtbl.t;  (* per proc *)
  copy_in : (string, string list) Hashtbl.t;  (* per proc *)
  regions : (string, Layout.Region.t list) Hashtbl.t;  (* per meth:proc *)
  app : (string, Layout.Region.t list * string list) Hashtbl.t;
      (* combined regions and copy-in vars per meth:procs *)
}

type t = {
  program : Ir.Ast.program;
  init : string -> int -> int;
  cache : Cache.Sassoc.config;
  page_size : int;
  tlb_entries : int;
  default_trip_count : int;
  address_map : Layout.Address_map.t;
  memo : memo;
}

let make ?(page_size = 256) ?(tlb_entries = 32) ?(init = fun _ _ -> 0)
    ?(default_trip_count = Ir.Static_analysis.default_trip_count) ~cache
    program =
  Ir.Ast.validate program;
  let vars =
    List.map
      (fun v -> (v.Ir.Ast.name, Ir.Ast.var_size_bytes v))
      program.Ir.Ast.vars
  in
  let address_map =
    Layout.Address_map.build ~page_size
      ~column_size:(Cache.Sassoc.column_size_bytes cache)
      ~vars ()
  in
  let memo =
    {
      lock = Mutex.create ();
      packed = Hashtbl.create 8;
      copy_in = Hashtbl.create 8;
      regions = Hashtbl.create 8;
      app = Hashtbl.create 4;
    }
  in
  { program; init; cache; page_size; tlb_entries; default_trip_count;
    address_map; memo }

let memo_get memo tbl key compute =
  Mutex.lock memo.lock;
  let cached = Hashtbl.find_opt tbl key in
  Mutex.unlock memo.lock;
  match cached with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.lock memo.lock;
      let v =
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            Hashtbl.add tbl key v;
            v
      in
      Mutex.unlock memo.lock;
      v

let meth_key = function
  | Profile_based -> "p"
  | Program_analysis -> "a"

let columns t = t.cache.Cache.Sassoc.ways
let column_size t = Cache.Sassoc.column_size_bytes t.cache

let packed_trace_of t ~proc =
  memo_get t.memo t.memo.packed proc (fun () ->
      Ir.Interp.packed_trace_of ~init:t.init t.program ~proc
        ~layout:(Layout.Address_map.to_ir_layout t.address_map))

let trace_of t ~proc = Memtrace.Packed.to_trace (packed_trace_of t ~proc)

let vars_of_proc t ~proc =
  List.map
    (fun name ->
      match Ir.Ast.find_var t.program name with
      | Some v -> (name, Ir.Ast.var_size_bytes v)
      | None -> assert false)
    (Ir.Ast.vars_referenced t.program ~proc)

let summaries t ~proc ~meth =
  match meth with
  | Profile_based -> Profile.Lifetime.of_packed [ packed_trace_of t ~proc ]
  | Program_analysis ->
      Ir.Static_analysis.analyze ~default_trip_count:t.default_trip_count
        t.program ~proc

(* Exact per-subarray profiling: each of [vars] larger than a column is
   profiled per column-sized chunk of its placement under the address map,
   as region ["var#k"]; accesses to other variables are not profiled. *)
let region_summaries t ~vars traces =
  let s = column_size t in
  Profile.Lifetime.of_packed_classified traces ~rule:(fun name ->
      match List.assoc_opt name vars with
      | None -> Profile.Lifetime.Skip
      | Some size when size <= s -> Profile.Lifetime.Whole
      | Some _ ->
          Profile.Lifetime.Split
            { base = Layout.Address_map.base_of t.address_map name; chunk = s })

let regions t ~proc ~meth =
  memo_get t.memo t.memo.regions
    (meth_key meth ^ ":" ^ proc)
    (fun () ->
      let vars = vars_of_proc t ~proc in
      let region_summaries =
        match meth with
        | Profile_based -> region_summaries t ~vars [ packed_trace_of t ~proc ]
        | Program_analysis -> []
      in
      Layout.Region.split_vars ~region_summaries ~column_size:(column_size t)
        ~vars ~summaries:(summaries t ~proc ~meth) ())

let partition ?forced_scratchpad ?mode t ~proc ~scratchpad_columns ~meth =
  let spec =
    Layout.Partition.spec ~columns:(columns t) ~column_size:(column_size t)
      ~scratchpad_columns
  in
  Layout.Partition.compute ?forced_scratchpad ?mode ~spec
    ~address_map:t.address_map
    (regions t ~proc ~meth)

(* Variables both read and written during a run hold in-place working data:
   pinning them to scratchpad requires a real copy-in (see
   {!Layout.Partition.apply}). *)
let copy_in_vars traces =
  let reads = Hashtbl.create 16 and writes = Hashtbl.create 16 in
  List.iter
    (fun trace ->
      let names = Memtrace.Packed.var_table trace in
      let read = Array.make (Array.length names) false in
      let written = Array.make (Array.length names) false in
      let tags = Memtrace.Packed.raw_tags trace in
      let kinds = Memtrace.Packed.raw_kinds trace in
      for i = 0 to Memtrace.Packed.length trace - 1 do
        let tag = Bigarray.Array1.unsafe_get tags i in
        if tag >= 0 then
          match Memtrace.Packed.kind_at kinds i with
          | Memtrace.Access.Read | Memtrace.Access.Ifetch -> read.(tag) <- true
          | Memtrace.Access.Write -> written.(tag) <- true
      done;
      Array.iteri
        (fun tag name ->
          if read.(tag) then Hashtbl.replace reads name ();
          if written.(tag) then Hashtbl.replace writes name ())
        names)
    traces;
  Hashtbl.fold
    (fun v () acc -> if Hashtbl.mem writes v then v :: acc else acc)
    reads []

let copy_in_of t ~proc =
  memo_get t.memo t.memo.copy_in proc (fun () ->
      copy_in_vars [ packed_trace_of t ~proc ])

let fresh_system t =
  Machine.System.create
    (Machine.System.config ~page_size:t.page_size ~tlb_entries:t.tlb_entries
       t.cache)

let run_partitioned ?forced_scratchpad ?mode t ~proc ~scratchpad_columns ~meth =
  let part =
    partition ?forced_scratchpad ?mode t ~proc ~scratchpad_columns ~meth
  in
  let system = fresh_system t in
  Layout.Partition.apply ~copy_in:(copy_in_of t ~proc) part system;
  let stats = Machine.System.run_packed system (packed_trace_of t ~proc) in
  (stats, part)

let run_standard t ~proc =
  let packed = packed_trace_of t ~proc in
  match
    Sweep.standard ~cache:t.cache ~timing:Machine.Timing.default
      ~page_size:t.page_size ~tlb_entries:t.tlb_entries [ packed ]
  with
  | Some stats -> stats
  | None -> Machine.System.run_packed (fresh_system t) packed

let best_split ?(allow_uncached = true) ?mode ?sample_rate ?(jobs = 1) t
    ~proc ~meth =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf
         "Pipeline.best_split: jobs must be a positive domain count, got %d"
         jobs);
  if jobs > t.cache.Cache.Sassoc.sets then
    invalid_arg
      (Printf.sprintf "Pipeline.best_split: more shards (jobs=%d) than sets (%d)"
         jobs t.cache.Cache.Sassoc.sets);
  let k = columns t in
  let packed = packed_trace_of t ~proc in
  let copy_in = copy_in_of t ~proc in
  (* Each candidate point only needs its cycle count to rank; the
     stack-distance evaluator supplies it without a machine replay whenever
     the partition decomposes into isolated LRU groups — sharded over [jobs]
     worker domains when asked, which changes no digit of any count. With
     [sample_rate] the ranking uses the SHARDS-sampled estimator instead —
     cheaper still — while the winner below is always replayed exactly. *)
  let exact_cycles part =
    match
      (if jobs = 1 then
         Sweep.partitioned ~cache:t.cache ~timing:Machine.Timing.default
           ~page_size:t.page_size ~tlb_entries:t.tlb_entries ~part ~copy_in
           [ packed ]
       else
         Sweep.partitioned_parallel ~jobs ~cache:t.cache
           ~timing:Machine.Timing.default ~page_size:t.page_size
           ~tlb_entries:t.tlb_entries ~part ~copy_in [ packed ])
    with
    | Some stats -> float_of_int stats.Machine.Run_stats.cycles
    | None ->
        let system = fresh_system t in
        Layout.Partition.apply ~copy_in part system;
        float_of_int
          (Machine.System.run_packed system packed).Machine.Run_stats.cycles
  in
  let point_cycles part =
    match sample_rate with
    | None -> exact_cycles part
    | Some rate -> (
        match
          Sweep.partitioned_sampled ~rate ~cache:t.cache
            ~timing:Machine.Timing.default ~page_size:t.page_size
            ~tlb_entries:t.tlb_entries ~part ~copy_in [ packed ]
        with
        | Some est -> est
        | None -> exact_cycles part)
  in
  let candidates =
    List.filter_map
      (fun p ->
        let part = partition ?mode t ~proc ~scratchpad_columns:p ~meth in
        if (not allow_uncached) && Layout.Partition.uncached_regions part <> []
        then None
        else Some (p, point_cycles part))
      (List.init (k + 1) (fun p -> p))
  in
  match candidates with
  | [] -> invalid_arg "Pipeline.best_split: no feasible split"
  | first :: rest ->
      let best_p, _ =
        List.fold_left
          (fun ((_, b) as best) ((_, c) as cand) ->
            if c < b then cand else best)
          first rest
      in
      (* Replay the winner exactly: callers get the full machine statistics
         (per-way fills, three-C classification), not only the fields the
         closed form covers. *)
      ( best_p,
        fst (run_partitioned ?mode t ~proc ~scratchpad_columns:best_p ~meth) )

let dynamic_schedule ?mode t ~procs ~meth =
  let phased =
    List.map
      (fun proc ->
        let p, _ = best_split ~allow_uncached:false ?mode t ~proc ~meth in
        let part = partition ?mode t ~proc ~scratchpad_columns:p ~meth in
        ( Layout.Dynamic.phase ~copy_in:(copy_in_of t ~proc) ~label:proc part,
          packed_trace_of t ~proc ))
      procs
  in
  ( Layout.Dynamic.schedule (List.map fst phased),
    List.map (fun (ph, trace) -> (ph.Layout.Dynamic.label, trace)) phased )

let run_dynamic_detailed ?mode t ~procs ~meth =
  let schedule, traces = dynamic_schedule ?mode t ~procs ~meth in
  let system = fresh_system t in
  Layout.Dynamic.run ~system ~traces schedule

let run_dynamic ?mode t ~procs ~meth =
  fst (run_dynamic_detailed ?mode t ~procs ~meth)

(* Merge per-procedure static summaries into whole-application ones by
   laying procedure clocks end to end (procedures run in sequence). *)
let combined_static_summaries t ~procs =
  let table : (string, Profile.Lifetime.summary) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let offset = ref 0 in
  List.iter
    (fun proc ->
      let cost =
        int_of_float
          (Ir.Static_analysis.cost_of_proc
             ~default_trip_count:t.default_trip_count t.program ~proc)
      in
      List.iter
        (fun (name, s) ->
          let open Profile.Lifetime in
          let shifted =
            summary ~accesses:s.accesses ~first:(s.first + !offset)
              ~last:(s.last + !offset) ()
          in
          match Hashtbl.find_opt table name with
          | None ->
              Hashtbl.add table name shifted;
              order := name :: !order
          | Some prev ->
              Hashtbl.replace table name
                (summary
                   ~accesses:(prev.accesses +. shifted.accesses)
                   ~first:(min prev.first shifted.first)
                   ~last:(max prev.last shifted.last) ()))
        (Ir.Static_analysis.analyze ~default_trip_count:t.default_trip_count
           t.program ~proc);
      offset := !offset + cost)
    procs;
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order

(* Regions and copy-in variables of the combined application trace do not
   depend on the scratchpad split, so the whole-application sweep derives
   them once per (method, procedure list). *)
let static_app_layout t ~procs ~meth =
  memo_get t.memo t.memo.app
    (meth_key meth ^ ":" ^ String.concat "\x00" procs)
    (fun () ->
      let traces = List.map (fun proc -> packed_trace_of t ~proc) procs in
      let summaries =
        match meth with
        | Profile_based -> Profile.Lifetime.of_packed traces
        | Program_analysis -> combined_static_summaries t ~procs
      in
      let vars =
        let seen = Hashtbl.create 16 in
        List.concat_map
          (fun proc ->
            List.filter
              (fun (name, _) ->
                if Hashtbl.mem seen name then false
                else begin
                  Hashtbl.add seen name ();
                  true
                end)
              (vars_of_proc t ~proc))
          procs
      in
      let region_summaries =
        match meth with
        | Profile_based -> region_summaries t ~vars traces
        | Program_analysis -> []
      in
      let regions =
        Layout.Region.split_vars ~region_summaries
          ~column_size:(column_size t) ~vars ~summaries ()
      in
      (regions, copy_in_vars traces))

let run_static_app ?mode t ~procs ~scratchpad_columns ~meth =
  let regions, copy_in = static_app_layout t ~procs ~meth in
  let spec =
    Layout.Partition.spec ~columns:(columns t) ~column_size:(column_size t)
      ~scratchpad_columns
  in
  let part =
    Layout.Partition.compute ?mode ~spec ~address_map:t.address_map regions
  in
  let packed = List.map (fun proc -> packed_trace_of t ~proc) procs in
  match
    Sweep.partitioned ~cache:t.cache ~timing:Machine.Timing.default
      ~page_size:t.page_size ~tlb_entries:t.tlb_entries ~part ~copy_in packed
  with
  | Some stats -> stats
  | None ->
      let system = fresh_system t in
      Layout.Partition.apply ~copy_in part system;
      List.fold_left
        (fun acc p ->
          Machine.Run_stats.add acc (Machine.System.run_packed system p))
        (Machine.Run_stats.zero ~ways:(columns t))
        packed
