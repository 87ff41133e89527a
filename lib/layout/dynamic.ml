module Bitmask = Cache.Bitmask

type phase = {
  label : string;
  partition : Partition.t;
  copy_in : string list;
}

let phase ?(copy_in = []) ~label partition =
  if Partition.uncached_regions partition <> [] then
    invalid_arg
      (Printf.sprintf
         "Dynamic.phase %s: partitions with uncached regions cannot be \
          scheduled dynamically"
         label);
  { label; partition; copy_in }

type transition = {
  to_label : string;
  remapped_regions : string list;
  first_tints : string list;
  preloaded_regions : string list;
  pte_writes : int;
  tint_table_writes : int;
  tlb_entry_flushes : int;
  preload_lines : int;
}

let no_op t =
  t.remapped_regions = [] && t.first_tints = [] && t.preloaded_regions = []

type schedule = phase list

let schedule = function
  | [] -> invalid_arg "Dynamic.schedule: no phases"
  | first :: rest as phases ->
      let spec p = p.partition.Partition.spec in
      List.iter
        (fun p ->
          if
            (spec p).Partition.columns <> (spec first).Partition.columns
            || (spec p).Partition.column_size
               <> (spec first).Partition.column_size
          then
            invalid_arg
              (Printf.sprintf
                 "Dynamic.schedule: phase %s disagrees on cache geometry"
                 p.label))
        rest;
      phases

let phases s = s

(* The reconfiguration work at one boundary. [tinted] is the set of regions
   already carrying their tint from earlier phases; [prev] the placements in
   force. Changed = new placement, different columns, or different role. *)
type delta = {
  changed : Partition.placement list;
  fresh : Partition.placement list;  (* first time this region is tinted *)
  to_preload : Partition.placement list;
  default_remap : bool;
}

let compute_delta ~tinted ~prev (next : Partition.t) =
  let prev_placement name =
    match prev with
    | None -> None
    | Some p -> Partition.placement_of p name
  in
  let changed, unchanged =
    List.partition
      (fun (pl : Partition.placement) ->
        match prev_placement (Region.name pl.Partition.region) with
        | None -> true
        | Some p0 ->
            p0.Partition.columns <> pl.Partition.columns
            || p0.Partition.role <> pl.Partition.role)
      next.Partition.placements
  in
  let fresh =
    List.filter
      (fun pl -> not (Hashtbl.mem tinted (Region.name pl.Partition.region)))
      changed
  in
  (* Columns touched by any changed placement (new or old masks): unchanged
     scratchpad regions whose columns intersect may have been displaced and
     must be re-preloaded. *)
  let touched =
    List.fold_left
      (fun acc (pl : Partition.placement) ->
        let acc =
          match pl.Partition.columns with
          | Some m -> Bitmask.union acc m
          | None -> acc
        in
        match prev_placement (Region.name pl.Partition.region) with
        | Some { Partition.columns = Some m; _ } -> Bitmask.union acc m
        | Some { Partition.columns = None; _ } | None -> acc)
      Bitmask.empty changed
  in
  let to_preload =
    List.filter
      (fun (pl : Partition.placement) ->
        pl.Partition.role = Partition.Scratchpad
        &&
        match pl.Partition.columns with
        | None -> false
        | Some m ->
            List.memq pl changed
            || not (Bitmask.is_empty (Bitmask.inter m touched)))
      (changed @ unchanged)
  in
  let default_remap =
    match prev with
    | None -> true
    | Some p ->
        p.Partition.spec.Partition.scratchpad_columns
        <> next.Partition.spec.Partition.scratchpad_columns
  in
  { changed; fresh; to_preload; default_remap }

let lines_of ~line_size (pl : Partition.placement) =
  (pl.Partition.region.Region.size + line_size - 1) / line_size

let predict_transition ~page_size ~line_size ~tinted ~prev phase =
  let next = phase.partition in
  let d = compute_delta ~tinted ~prev next in
  let pages_of (pl : Partition.placement) =
    let first = pl.Partition.base / page_size in
    let last =
      (pl.Partition.base + pl.Partition.region.Region.size - 1) / page_size
    in
    last - first + 1
  in
  List.iter
    (fun pl -> Hashtbl.replace tinted (Region.name pl.Partition.region) ())
    d.fresh;
  {
    to_label = phase.label;
    remapped_regions = List.map (fun pl -> Region.name pl.Partition.region) d.changed;
    first_tints = List.map (fun pl -> Region.name pl.Partition.region) d.fresh;
    preloaded_regions =
      List.map (fun pl -> Region.name pl.Partition.region) d.to_preload;
    pte_writes = List.fold_left (fun acc pl -> acc + pages_of pl) 0 d.fresh;
    tint_table_writes =
      List.length d.changed + if d.default_remap then 1 else 0;
    tlb_entry_flushes = List.fold_left (fun acc pl -> acc + pages_of pl) 0 d.fresh;
    preload_lines =
      List.fold_left (fun acc pl -> acc + lines_of ~line_size pl) 0 d.to_preload;
  }

let plan s =
  match s with
  | [] -> []
  | first :: _ ->
      let spec = first.partition.Partition.spec in
      (* plan-time estimates use the default embedded page size and a
         16-byte line; run-time numbers come from the live system *)
      let page_size = 256 and line_size = 16 in
      ignore spec;
      let tinted = Hashtbl.create 32 in
      let prev = ref None in
      List.map
        (fun phase ->
          let t =
            predict_transition ~page_size ~line_size ~tinted ~prev:!prev phase
          in
          prev := Some phase.partition;
          t)
        s

let apply_transition ~system ~tinted ~prev phase =
  let next = phase.partition in
  let cache_cfg = Cache.Sassoc.geometry (Machine.System.cache system) in
  let line_size = cache_cfg.Cache.Sassoc.line_size in
  let mapping = Machine.System.mapping system in
  let d = compute_delta ~tinted ~prev next in
  let before = Vm.Mapping.cost mapping in
  if d.default_remap then begin
    let p = next.Partition.spec.Partition.scratchpad_columns in
    let k = next.Partition.spec.Partition.columns in
    let mask =
      if k - p > 0 then Bitmask.range ~lo:p ~hi:(k - 1) else Bitmask.full ~n:k
    in
    Vm.Mapping.remap_tint mapping Vm.Tint.default mask
  end;
  List.iter
    (fun (pl : Partition.placement) ->
      let name = Region.name pl.Partition.region in
      let tint = Region.tint pl.Partition.region in
      if not (Hashtbl.mem tinted name) then begin
        ignore
          (Vm.Mapping.retint_region mapping ~base:pl.Partition.base
             ~size:pl.Partition.region.Region.size tint);
        Hashtbl.replace tinted name ()
      end;
      match pl.Partition.columns with
      | Some mask -> Vm.Mapping.remap_tint mapping tint mask
      | None -> assert false (* uncached placements are rejected by [phase] *))
    d.changed;
  (* preload (and charge copy-in where required) *)
  List.iter
    (fun (pl : Partition.placement) ->
      if List.mem pl.Partition.region.Region.var phase.copy_in then begin
        let timing = Machine.System.timing system in
        Machine.System.charge_cycles system
          (lines_of ~line_size pl
          * (timing.Machine.Timing.hit_cycles + timing.Machine.Timing.miss_penalty))
      end;
      Machine.System.preload system ~base:pl.Partition.base
        ~size:pl.Partition.region.Region.size)
    d.to_preload;
  let cost = Vm.Mapping.cost_delta ~before ~after:(Vm.Mapping.cost mapping) in
  {
    to_label = phase.label;
    remapped_regions = List.map (fun pl -> Region.name pl.Partition.region) d.changed;
    first_tints = List.map (fun pl -> Region.name pl.Partition.region) d.fresh;
    preloaded_regions =
      List.map (fun pl -> Region.name pl.Partition.region) d.to_preload;
    pte_writes = cost.Vm.Mapping.pte_writes;
    tint_table_writes = cost.Vm.Mapping.tint_table_writes;
    tlb_entry_flushes = cost.Vm.Mapping.tlb_entry_flushes;
    preload_lines =
      List.fold_left (fun acc pl -> acc + lines_of ~line_size pl) 0 d.to_preload;
  }

let run ~system ~traces s =
  let tinted = Hashtbl.create 32 in
  let prev = ref None in
  let k =
    match s with
    | [] -> invalid_arg "Dynamic.run: empty schedule"
    | first :: _ -> first.partition.Partition.spec.Partition.columns
  in
  let total = ref (Machine.Run_stats.zero ~ways:k) in
  let transitions =
    List.map
      (fun phase ->
        let trace =
          match List.assoc_opt phase.label traces with
          | Some t -> t
          | None ->
              invalid_arg
                (Printf.sprintf "Dynamic.run: no trace for phase %s" phase.label)
        in
        let t = apply_transition ~system ~tinted ~prev:!prev phase in
        prev := Some phase.partition;
        total := Machine.Run_stats.add !total (Machine.System.run_packed system trace);
        t)
      s
  in
  (!total, transitions)

let pp_transition ppf t =
  Format.fprintf ppf
    "@[<v>-> %s%s@,\
    \   remapped: %s@,\
    \   first tints: %s@,\
    \   preloaded: %s (%d lines)@,\
    \   cost: %d PTE writes, %d tint-table writes, %d TLB entry flushes@]"
    t.to_label
    (if no_op t then " (no-op)" else "")
    (String.concat ", " t.remapped_regions)
    (String.concat ", " t.first_tints)
    (String.concat ", " t.preloaded_regions)
    t.preload_lines t.pte_writes t.tint_table_writes t.tlb_entry_flushes
