(* Tests for the memtrace library: access records, trace containers and the
   synthetic generators. *)

module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Synthetic = Memtrace.Synthetic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Access --- *)

let test_access_make () =
  let a = Access.make ~kind:Access.Write ~var:"x" ~gap:3 0x100 in
  check_int "addr" 0x100 a.Access.addr;
  check_int "instructions" 4 (Access.instructions a);
  check_bool "kind" true (a.Access.kind = Access.Write)

let test_access_defaults () =
  let a = Access.make 42 in
  check_bool "read by default" true (a.Access.kind = Access.Read);
  check_int "gap" 0 a.Access.gap;
  check_bool "no var" true (a.Access.var = None)

let test_access_invalid () =
  Alcotest.check_raises "negative addr" (Invalid_argument "Access.make: negative address")
    (fun () -> ignore (Access.make (-1)));
  Alcotest.check_raises "negative gap" (Invalid_argument "Access.make: negative gap")
    (fun () -> ignore (Access.make ~gap:(-2) 0))

let test_access_line () =
  let a = Access.make 0x47 in
  check_int "line 16B" 4 (Access.line ~line_size:16 a);
  check_int "line 32B" 2 (Access.line ~line_size:32 a)

let test_access_string_roundtrip () =
  let samples =
    [
      Access.make ~kind:Access.Write ~var:"buf" ~gap:7 0xdead0;
      Access.make ~kind:Access.Ifetch 0;
      Access.make ~var:"a_b.c" 12345;
    ]
  in
  List.iter
    (fun a ->
      let b = Access.of_string (Access.to_string a) in
      check_bool "roundtrip" true (Access.equal a b))
    samples

let test_access_of_string_errors () =
  check_bool "garbage raises" true
    (try
       ignore (Access.of_string "nonsense");
       false
     with Invalid_argument _ -> true);
  check_bool "bad addr raises" true
    (try
       ignore (Access.of_string "R xyz - 0");
       false
     with Invalid_argument _ -> true)

(* --- Trace --- *)

let mk addrs = Trace.of_list (List.map Access.make addrs)

let test_trace_basic () =
  let t = mk [ 1; 2; 3 ] in
  check_int "length" 3 (Trace.length t);
  check_int "get" 2 (Trace.get t 1).Access.addr;
  check_bool "empty" true (Trace.is_empty Trace.empty)

let test_trace_get_out_of_bounds () =
  let t = mk [ 1 ] in
  check_bool "raises" true
    (try
       ignore (Trace.get t 5);
       false
     with Invalid_argument _ -> true)

let test_trace_append_concat () =
  let a = mk [ 1; 2 ] and b = mk [ 3 ] in
  check_bool "append" true (Trace.equal (Trace.append a b) (mk [ 1; 2; 3 ]));
  check_bool "concat" true
    (Trace.equal (Trace.concat [ a; Trace.empty; b ]) (mk [ 1; 2; 3 ]))

let test_trace_instructions () =
  let t =
    Trace.of_list [ Access.make ~gap:2 0; Access.make 4; Access.make ~gap:5 8 ]
  in
  check_int "instructions" 10 (Trace.instructions t)

let test_trace_shift () =
  let t = mk [ 0; 16 ] in
  let s = Trace.shift t ~offset:32 in
  check_int "shifted first" 32 (Trace.get s 0).Access.addr;
  check_int "shifted second" 48 (Trace.get s 1).Access.addr;
  (* shifting down is fine as long as no address goes negative... *)
  let back = Trace.shift s ~offset:(-32) in
  check_bool "round-trip shift" true (Trace.equal back t);
  (* ...and rejected the moment one would *)
  Alcotest.check_raises "negative result rejected"
    (Invalid_argument "Access.with_addr: negative address") (fun () ->
      ignore (Trace.shift t ~offset:(-1)));
  check_bool "empty trace shifts to empty" true
    (Trace.is_empty (Trace.shift Trace.empty ~offset:(-4096)))

let test_trace_filter () =
  let t = mk [ 0; 16; 32; 48 ] in
  let even a = a.Access.addr mod 32 = 0 in
  check_bool "partial filter" true
    (Trace.equal (Trace.filter even t) (mk [ 0; 32 ]));
  check_bool "full filter keeps everything" true
    (Trace.equal (Trace.filter (fun _ -> true) t) t);
  check_bool "empty result" true
    (Trace.is_empty (Trace.filter (fun _ -> false) t));
  check_bool "empty input" true
    (Trace.is_empty (Trace.filter (fun _ -> true) Trace.empty));
  (* order of survivors is preserved *)
  let odd a = a.Access.addr mod 32 <> 0 in
  Alcotest.(check (list int))
    "order preserved" [ 16; 48 ]
    (List.map (fun a -> a.Access.addr) (Trace.to_list (Trace.filter odd t)))

let test_trace_sub () =
  let t = mk [ 1; 2; 3; 4 ] in
  check_bool "middle slice" true
    (Trace.equal (Trace.sub t ~pos:1 ~len:2) (mk [ 2; 3 ]));
  check_bool "empty slice" true (Trace.is_empty (Trace.sub t ~pos:2 ~len:0));
  check_bool "whole trace" true (Trace.equal (Trace.sub t ~pos:0 ~len:4) t);
  check_bool "out-of-bounds raises" true
    (try
       ignore (Trace.sub t ~pos:3 ~len:2);
       false
     with Invalid_argument _ -> true);
  check_bool "negative pos raises" true
    (try
       ignore (Trace.sub t ~pos:(-1) ~len:1);
       false
     with Invalid_argument _ -> true)

let test_trace_vars () =
  let t =
    Trace.of_list
      [
        Access.make ~var:"a" 0;
        Access.make 4;
        Access.make ~var:"b" 8;
        Access.make ~var:"a" 12;
      ]
  in
  Alcotest.(check (list string)) "vars in order" [ "a"; "b" ] (Trace.vars t);
  check_int "filter_var a" 2 (Trace.length (Trace.filter_var t "a"))

let test_trace_addr_range () =
  check_bool "empty none" true (Trace.addr_range Trace.empty = None);
  check_bool "range" true (Trace.addr_range (mk [ 5; 1; 9 ]) = Some (1, 9))

let test_trace_footprint () =
  let t = mk [ 0; 4; 8; 16; 31; 32 ] in
  check_int "lines" 3 (Trace.footprint ~line_size:16 t)

let test_trace_string_roundtrip () =
  let t =
    Trace.of_list
      [ Access.make ~var:"x" ~gap:1 0x10; Access.write ~gap:2 0x20 ]
  in
  check_bool "roundtrip" true (Trace.equal t (Trace.of_string (Trace.to_string t)))

let test_builder () =
  let b = Trace.Builder.create ~initial_capacity:1 () in
  for i = 0 to 99 do
    Trace.Builder.emit b (i * 4)
  done;
  check_int "builder length" 100 (Trace.Builder.length b);
  let t = Trace.Builder.build b in
  check_int "built length" 100 (Trace.length t);
  check_int "last addr" 396 (Trace.get t 99).Access.addr

(* --- Synthetic --- *)

let test_sequential () =
  let t = Synthetic.sequential ~base:100 ~count:5 ~stride:8 () in
  Alcotest.(check (list int))
    "addresses"
    [ 100; 108; 116; 124; 132 ]
    (List.map (fun a -> a.Access.addr) (Trace.to_list t))

let test_repeat_walk () =
  let t = Synthetic.repeat_walk ~base:0 ~len:3 ~stride:4 ~passes:2 () in
  Alcotest.(check (list int))
    "two passes"
    [ 0; 4; 8; 0; 4; 8 ]
    (List.map (fun a -> a.Access.addr) (Trace.to_list t))

let test_uniform_random_deterministic () =
  let t1 = Synthetic.uniform_random ~seed:7 ~base:0 ~span:1024 ~count:50 () in
  let t2 = Synthetic.uniform_random ~seed:7 ~base:0 ~span:1024 ~count:50 () in
  check_bool "same seed same trace" true (Trace.equal t1 t2);
  let t3 = Synthetic.uniform_random ~seed:8 ~base:0 ~span:1024 ~count:50 () in
  check_bool "different seed differs" false (Trace.equal t1 t3)

let test_uniform_random_in_span () =
  let t = Synthetic.uniform_random ~seed:3 ~base:4096 ~span:256 ~count:200 () in
  Trace.iter
    (fun a ->
      check_bool "in span" true (a.Access.addr >= 4096 && a.Access.addr < 4096 + 256);
      check_int "aligned" 0 (a.Access.addr mod 4))
    t

let test_interleave () =
  let a = mk [ 1; 2; 3; 4 ] and b = mk [ 10; 20 ] in
  let t = Synthetic.interleave [ a; b ] ~quantum:2 in
  Alcotest.(check (list int))
    "round robin"
    [ 1; 2; 10; 20; 3; 4 ]
    (List.map (fun x -> x.Access.addr) (Trace.to_list t))

(* --- Trace_file --- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_trace_file_roundtrip () =
  let t =
    Trace.of_list
      [
        Access.make ~var:"x" ~gap:3 0x100;
        Access.write ~gap:1 0x200;
        Access.make ~kind:Access.Ifetch 0x300;
      ]
  in
  let path = tmp_path "colcache_test_roundtrip.trace" in
  Memtrace.Trace_file.save ~path t;
  let t' = Memtrace.Trace_file.load ~path in
  Sys.remove path;
  check_bool "roundtrip" true (Trace.equal t t')

let test_trace_file_empty () =
  let path = tmp_path "colcache_test_empty.trace" in
  Memtrace.Trace_file.save ~path Trace.empty;
  let t = Memtrace.Trace_file.load ~path in
  Sys.remove path;
  check_bool "empty roundtrip" true (Trace.is_empty t)

let test_trace_file_random_roundtrip () =
  (* Property-style round-trip over the conformance harness's generator:
     write → read → structural equality, across random kinds, vars, gaps and
     lengths — including length 0 (Check.Gen.trace may produce it, and the
     last iteration forces it). *)
  let rng = Check.Prng.create ~seed:271828 in
  let path = tmp_path "colcache_test_gen_roundtrip.trace" in
  let one trace =
    Memtrace.Trace_file.save ~path trace;
    let back = Memtrace.Trace_file.load ~path in
    check_bool "header count" true
      (Memtrace.Trace_file.header_of trace
       = Printf.sprintf "colcache-trace v1 %d" (Trace.length trace));
    check_bool "roundtrip" true (Trace.equal trace back)
  in
  let saw_empty = ref false in
  for _ = 1 to 40 do
    let trace = Check.Gen.trace rng in
    if Trace.is_empty trace then saw_empty := true;
    one trace
  done;
  one Trace.empty;
  (* the explicit empty case always runs even if the generator produced none *)
  check_bool "empty case covered" true (!saw_empty || Trace.is_empty Trace.empty);
  Sys.remove path

let test_trace_file_bad_header () =
  let path = tmp_path "colcache_test_bad.trace" in
  let oc = open_out path in
  output_string oc "not a trace
";
  close_out oc;
  let raised =
    try ignore (Memtrace.Trace_file.load ~path); false
    with Invalid_argument _ -> true
  in
  Sys.remove path;
  check_bool "bad header rejected" true raised

let test_trace_file_count_mismatch () =
  let path = tmp_path "colcache_test_mismatch.trace" in
  let oc = open_out path in
  output_string oc "colcache-trace v1 5
R 0x0 - 0
";
  close_out oc;
  let raised =
    try ignore (Memtrace.Trace_file.load ~path); false
    with Invalid_argument _ -> true
  in
  Sys.remove path;
  check_bool "count mismatch rejected" true raised

(* --- properties --- *)

let gen_access =
  QCheck.Gen.(
    let* addr = int_bound 0xFFFFF in
    let* gap = int_bound 20 in
    let* kind = oneofl [ Access.Read; Access.Write; Access.Ifetch ] in
    let* var = opt (oneofl [ "a"; "b"; "stream"; "tbl" ]) in
    return (Access.make ~kind ?var ~gap addr))

let arb_trace =
  QCheck.make
    ~print:(fun t -> Trace.to_string t)
    QCheck.Gen.(map Trace.of_list (list_size (int_bound 60) gen_access))

let prop_trace_string_roundtrip =
  QCheck.Test.make ~name:"trace to_string/of_string roundtrip" ~count:200
    arb_trace (fun t -> Trace.equal t (Trace.of_string (Trace.to_string t)))

let prop_shift_preserves_structure =
  QCheck.Test.make ~name:"shift preserves length and instruction count" ~count:200
    arb_trace (fun t ->
      let s = Trace.shift t ~offset:4096 in
      Trace.length s = Trace.length t
      && Trace.instructions s = Trace.instructions t)

let prop_concat_length =
  QCheck.Test.make ~name:"concat sums lengths" ~count:100
    (QCheck.pair arb_trace arb_trace) (fun (a, b) ->
      Trace.length (Trace.concat [ a; b ]) = Trace.length a + Trace.length b)

let prop_footprint_bounded =
  QCheck.Test.make ~name:"footprint <= length and >= 1 when non-empty" ~count:200
    arb_trace (fun t ->
      let f = Trace.footprint ~line_size:16 t in
      if Trace.is_empty t then f = 0 else f >= 1 && f <= Trace.length t)

(* --- packed (columnar) storage --- *)

module Packed = Memtrace.Packed

let prop_packed_trace_roundtrip =
  QCheck.Test.make ~name:"packed of_trace/to_trace identity" ~count:200
    arb_trace (fun t ->
      Trace.equal t (Packed.to_trace (Packed.of_trace t)))

let prop_packed_builder_agrees =
  QCheck.Test.make ~name:"packed Builder agrees with of_list" ~count:200
    arb_trace (fun t ->
      let accesses = Trace.to_list t in
      let b = Packed.Builder.create () in
      List.iter (Packed.Builder.add b) accesses;
      Packed.equal (Packed.Builder.build b) (Packed.of_list accesses))

let prop_packed_preserves_columns =
  QCheck.Test.make ~name:"packed columns match per-access fields" ~count:200
    arb_trace (fun t ->
      let p = Packed.of_trace t in
      Packed.length p = Trace.length t
      && Packed.instructions p = Trace.instructions t
      && List.for_all2
           (fun (a : Access.t) i ->
             Packed.addr p i = a.Access.addr
             && Packed.gap p i = a.Access.gap
             && Packed.kind p i = a.Access.kind
             && Packed.var p i = a.Access.var
             && Access.equal (Packed.get p i) a)
           (Trace.to_list t)
           (List.init (Trace.length t) Fun.id))

let test_packed_rejects_negative () =
  let b = Packed.Builder.create () in
  Alcotest.check_raises "negative address"
    (Invalid_argument "Packed.Builder.emit: negative address") (fun () ->
      Packed.Builder.emit b (-1));
  Alcotest.check_raises "negative gap"
    (Invalid_argument "Packed.Builder.emit: negative gap") (fun () ->
      Packed.Builder.emit b ~gap:(-3) 0x40);
  check_int "rejected accesses are not recorded" 0 (Packed.Builder.length b)

let test_packed_max_address () =
  let b = Packed.Builder.create ~initial_capacity:1 () in
  Packed.Builder.emit b ~kind:Access.Write ~var:"edge" ~gap:0 max_int;
  Packed.Builder.emit b max_int;
  let p = Packed.Builder.build b in
  check_int "max address survives" max_int (Packed.addr p 0);
  check_int "and again past a growth" max_int (Packed.addr p 1);
  let t = Packed.to_trace p in
  check_bool "round-trips through the boxed form" true
    (Packed.equal p (Packed.of_trace t))

let test_packed_var_interning () =
  let b = Packed.Builder.create () in
  for i = 0 to 99 do
    Packed.Builder.emit b ~var:(if i mod 2 = 0 then "even" else "odd") i
  done;
  Packed.Builder.emit b 100;
  let p = Packed.Builder.build b in
  check_int "two interned names" 2 (Array.length (Packed.var_table p));
  check_bool "tags index the table" true
    (Packed.var p 0 = Some "even"
    && Packed.var p 1 = Some "odd"
    && Packed.var p 100 = None)

(* A builder sized to its trace hands its columns to [build]; pushes after
   that must grow into fresh columns and leave the built trace as it was. *)
let test_packed_handover_immutable () =
  let b = Packed.Builder.create ~initial_capacity:4 () in
  let v = Packed.Builder.var b "v" in
  for i = 0 to 3 do
    Packed.Builder.push b ~kind:Access.Read ~var:v ~gap:1 (i * 16)
  done;
  let p = Packed.Builder.build b in
  let before = Packed.to_list p in
  for i = 0 to 9 do
    Packed.Builder.push b ~kind:Access.Write ~var:Packed.Builder.untagged
      ~gap:7 (0x1000 + i)
  done;
  Packed.Builder.emit b ~var:"w" 0x2000;
  check_int "built trace keeps its length" 4 (Packed.length p);
  check_bool "built trace keeps its accesses" true
    (List.equal Access.equal before (Packed.to_list p));
  check_bool "built trace keeps its var table" true
    (Packed.var_table p = [| "v" |]);
  let q = Packed.Builder.build b in
  check_int "the builder kept growing" 15 (Packed.length q);
  check_bool "and holds the earlier accesses" true
    (List.equal Access.equal before (Packed.to_list (Packed.sub q ~pos:0 ~len:4)))

(* A builder with room to spare: [build] copies its filled part, and
   pushes after it, which go on filling the builder's columns and then
   grow them, must leave the built trace as it was. *)
let test_packed_prefix_immutable () =
  let b = Packed.Builder.create ~initial_capacity:8 () in
  let v = Packed.Builder.var b "v" in
  for i = 0 to 2 do
    Packed.Builder.push b ~kind:Access.Write ~var:v ~gap:i (i * 16)
  done;
  let p = Packed.Builder.build b in
  let before = Packed.to_list p in
  let pushes = [ 5; 20 ] in
  List.iter
    (fun n ->
      for i = 1 to n do
        Packed.Builder.push b ~kind:Access.Ifetch ~var:Packed.Builder.untagged
          ~gap:3 (0x1000 + i)
      done;
      check_int "built trace keeps its length" 3 (Packed.length p);
      check_bool "built trace keeps its accesses" true
        (List.equal Access.equal before (Packed.to_list p)))
    pushes;
  let q = Packed.Builder.build b in
  check_int "the builder kept every push" 28 (Packed.length q);
  check_bool "and the built accesses first" true
    (List.equal Access.equal before (Packed.to_list (Packed.sub q ~pos:0 ~len:3)))

(* Handles resolved ahead of use, in an order unlike the accesses': the
   var table still lists names in order of first access, and a resolved
   name that no access uses stays out of it. *)
let test_packed_resolve_ahead () =
  let b = Packed.Builder.create () in
  let unused = Packed.Builder.var b "unused" in
  let c = Packed.Builder.var b "c" in
  let a = Packed.Builder.var b "a" in
  let b' = Packed.Builder.var b "b" in
  ignore unused;
  check_bool "resolving is idempotent" true (Packed.Builder.var b "a" = a);
  List.iter
    (fun v -> Packed.Builder.push b ~kind:Access.Read ~var:v ~gap:0 0x40)
    [ a; Packed.Builder.untagged; b'; a; c; b' ];
  Packed.Builder.emit b ~var:"d" 0x80;
  let p = Packed.Builder.build b in
  check_bool "first-appearance order" true
    (Packed.var_table p = [| "a"; "b"; "c"; "d" |]);
  check_bool "tags index the table" true
    (List.init (Packed.length p) (Packed.var p)
    = [ Some "a"; None; Some "b"; Some "a"; Some "c"; Some "b"; Some "d" ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_trace_string_roundtrip;
      prop_shift_preserves_structure;
      prop_concat_length;
      prop_footprint_bounded;
      prop_packed_trace_roundtrip;
      prop_packed_builder_agrees;
      prop_packed_preserves_columns;
    ]

let suites =
  [
    ( "memtrace.access",
      [
        Alcotest.test_case "make" `Quick test_access_make;
        Alcotest.test_case "defaults" `Quick test_access_defaults;
        Alcotest.test_case "invalid args" `Quick test_access_invalid;
        Alcotest.test_case "line address" `Quick test_access_line;
        Alcotest.test_case "string roundtrip" `Quick test_access_string_roundtrip;
        Alcotest.test_case "of_string errors" `Quick test_access_of_string_errors;
      ] );
    ( "memtrace.trace",
      [
        Alcotest.test_case "basic" `Quick test_trace_basic;
        Alcotest.test_case "out of bounds" `Quick test_trace_get_out_of_bounds;
        Alcotest.test_case "append/concat" `Quick test_trace_append_concat;
        Alcotest.test_case "instructions" `Quick test_trace_instructions;
        Alcotest.test_case "shift" `Quick test_trace_shift;
        Alcotest.test_case "filter" `Quick test_trace_filter;
        Alcotest.test_case "sub" `Quick test_trace_sub;
        Alcotest.test_case "vars" `Quick test_trace_vars;
        Alcotest.test_case "addr_range" `Quick test_trace_addr_range;
        Alcotest.test_case "footprint" `Quick test_trace_footprint;
        Alcotest.test_case "string roundtrip" `Quick test_trace_string_roundtrip;
        Alcotest.test_case "builder" `Quick test_builder;
      ] );
    ( "memtrace.synthetic",
      [
        Alcotest.test_case "sequential" `Quick test_sequential;
        Alcotest.test_case "repeat walk" `Quick test_repeat_walk;
        Alcotest.test_case "random determinism" `Quick test_uniform_random_deterministic;
        Alcotest.test_case "random span" `Quick test_uniform_random_in_span;
        Alcotest.test_case "interleave" `Quick test_interleave;
      ] );
    ( "memtrace.trace_file",
      [
        Alcotest.test_case "roundtrip" `Quick test_trace_file_roundtrip;
        Alcotest.test_case "empty" `Quick test_trace_file_empty;
        Alcotest.test_case "random roundtrip (Check.Gen)" `Quick
          test_trace_file_random_roundtrip;
        Alcotest.test_case "bad header" `Quick test_trace_file_bad_header;
        Alcotest.test_case "count mismatch" `Quick test_trace_file_count_mismatch;
      ] );
    ( "memtrace.packed",
      [
        Alcotest.test_case "builder rejects negatives" `Quick
          test_packed_rejects_negative;
        Alcotest.test_case "max address round-trip" `Quick
          test_packed_max_address;
        Alcotest.test_case "variable interning" `Quick
          test_packed_var_interning;
        Alcotest.test_case "build hands over a full builder" `Quick
          test_packed_handover_immutable;
        Alcotest.test_case "build copies a partly filled builder" `Quick
          test_packed_prefix_immutable;
        Alcotest.test_case "tags resolved ahead of use" `Quick
          test_packed_resolve_ahead;
      ] );
    ("memtrace.properties", qcheck_cases);
  ]
