(* Tests for the packed binary trace file format: golden byte-pinned header,
   header validation (magic / version / truncation / byte-order probe),
   mmap round-trips, streaming-Writer equivalence, and the
   Trace_file/Packed interop contract the replay tools depend on. *)

module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Packed = Memtrace.Packed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "colcache_%s_%d.pk" name (Unix.getpid ()))

let with_tmp name f =
  let path = tmp_path name in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let rejects ?(substring = "") f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      if substring <> "" then
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        check_bool
          (Printf.sprintf "error %S mentions %S" msg substring)
          true (contains msg substring)

(* A small fixed trace with two interned variables, used by the golden and
   corruption tests. *)
let golden_trace () =
  Packed.of_list
    [
      Access.make ~kind:Access.Write ~var:"x" ~gap:1 0x10;
      Access.make ~kind:Access.Read 0x20;
      Access.make ~kind:Access.Ifetch ~var:"y" ~gap:2 0x30;
    ]

(* --- golden header ------------------------------------------------------ *)

(* The first 96 bytes of the file are pinned byte-for-byte: the format is an
   on-disk contract, and any layout change must be deliberate (and bump the
   version). n = 3 gives one page per column: addrs at 4096, gaps at 8192,
   kinds at 12288, tags at 16384, vars at 16384 + 24. The variable table is
   "x" then "y" in first-appearance order, 9 bytes each. *)
let test_golden_header () =
  with_tmp "golden" (fun path ->
      Packed.write_file path (golden_trace ());
      let data = read_bytes path in
      let expected = Bytes.make 96 '\000' in
      Bytes.blit_string "colcache-packed\n" 0 expected 0 16;
      let set off v = Bytes.set_int64_le expected off (Int64.of_int v) in
      set 16 1 (* version *);
      set 24 3 (* accesses *);
      set 32 4096 (* addrs_off *);
      set 40 8192 (* gaps_off *);
      set 48 12288 (* kinds_off *);
      set 56 16384 (* tags_off *);
      set 64 (16384 + 24) (* var_off *);
      set 72 2 (* var_count *);
      set 80 18 (* var_bytes: (8 + 1) * 2 *);
      set 88 0x0123456789abcde (* byte-order probe *);
      check_bool "header prefix is byte-identical" true
        (String.sub data 0 96 = Bytes.to_string expected);
      check_bool "rest of header page is zero" true
        (String.for_all (fun c -> c = '\000') (String.sub data 96 (4096 - 96)));
      check_int "file size = var_off + var_bytes" (16384 + 24 + 18)
        (String.length data);
      (* the first column word is the first address, little-endian *)
      check_int "first addr word" 0x10
        (Int64.to_int (Bytes.get_int64_le (Bytes.of_string data) 4096)))

(* --- header validation -------------------------------------------------- *)

let corrupt ~at byte path data =
  let b = Bytes.of_string data in
  Bytes.set b at byte;
  write_bytes path (Bytes.to_string b)

let test_reject_bad_magic () =
  with_tmp "badmagic" (fun path ->
      Packed.write_file path (golden_trace ());
      let data = read_bytes path in
      corrupt ~at:0 'X' path data;
      rejects ~substring:"magic" (fun () -> Packed.map_file path);
      check_bool "not sniffed as packed" true (not (Packed.is_packed_file path)))

let test_reject_version_mismatch () =
  with_tmp "badversion" (fun path ->
      Packed.write_file path (golden_trace ());
      let data = read_bytes path in
      corrupt ~at:16 '\002' path data;
      rejects ~substring:"version" (fun () -> Packed.map_file path))

let test_reject_truncated () =
  with_tmp "trunc" (fun path ->
      Packed.write_file path (golden_trace ());
      let data = read_bytes path in
      (* cut inside the var table: header still parses, size check fires *)
      write_bytes path (String.sub data 0 (String.length data - 5));
      rejects (fun () -> Packed.map_file path);
      (* cut inside the header page itself: clean error, not a crash *)
      write_bytes path (String.sub data 0 100);
      rejects (fun () -> Packed.map_file path);
      (* empty file *)
      write_bytes path "";
      rejects (fun () -> Packed.map_file path))

let test_reject_probe_mismatch () =
  with_tmp "probe" (fun path ->
      Packed.write_file path (golden_trace ());
      let data = read_bytes path in
      (* flipping one probe byte simulates a foreign-endianness file *)
      corrupt ~at:88 '\xff' path data;
      rejects (fun () -> Packed.map_file path))

let test_reject_offset_mismatch () =
  with_tmp "offsets" (fun path ->
      Packed.write_file path (golden_trace ());
      let data = read_bytes path in
      let b = Bytes.of_string data in
      Bytes.set_int64_le b 40 (Int64.of_int 12288) (* wrong gaps_off *);
      write_bytes path (Bytes.to_string b);
      rejects (fun () -> Packed.map_file path))

(* --- round-trips -------------------------------------------------------- *)

let test_roundtrip_fixed () =
  with_tmp "fixed" (fun path ->
      let t = golden_trace () in
      Packed.write_file path t;
      let m = Packed.map_file path in
      check_bool "packed equal" true (Packed.equal t m);
      check_bool "to_trace equal" true
        (Trace.equal (Packed.to_trace t) (Packed.to_trace m)))

let test_roundtrip_empty () =
  with_tmp "empty" (fun path ->
      Packed.write_file path (Packed.of_list []);
      let m = Packed.map_file path in
      check_int "empty maps to 0 accesses" 0 (Packed.length m);
      check_bool "to_trace is empty" true (Trace.is_empty (Packed.to_trace m)))

let test_roundtrip_max_address () =
  with_tmp "maxaddr" (fun path ->
      let t =
        Packed.of_list
          [ Access.make max_int; Access.make ~kind:Access.Write ~gap:max_int 0 ]
      in
      Packed.write_file path t;
      let m = Packed.map_file path in
      check_int "max_int address survives" max_int (Packed.addr m 0);
      check_int "max_int gap survives" max_int (Packed.gap m 1);
      check_bool "equal" true (Packed.equal t m))

let arb_trace =
  let access =
    QCheck.Gen.(
      map3
        (fun addr gap (kind, var) -> Access.make ~kind ?var ~gap addr)
        (oneof [ int_bound 0xffff; int_bound 0xffffffff ])
        (int_bound 7)
        (pair
           (oneofl [ Access.Read; Access.Write; Access.Ifetch ])
           (oneofl [ None; Some "a"; Some "b"; Some "long_variable_name" ])))
  in
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map Access.to_string l))
    QCheck.Gen.(list_size (int_bound 300) access)

let qcheck_mmap_roundtrip =
  QCheck.Test.make ~name:"write_file -> map_file -> to_trace is lossless"
    ~count:60 arb_trace (fun accesses ->
      with_tmp "qc" (fun path ->
          let t = Packed.of_list accesses in
          Packed.write_file path t;
          let m = Packed.map_file path in
          Packed.equal t m
          && Trace.equal (Packed.to_trace m) (Trace.of_list accesses)))

(* --- streaming writer --------------------------------------------------- *)

let test_writer_equals_write_file () =
  with_tmp "writer" (fun path ->
      with_tmp "writefile" (fun path' ->
          let t = golden_trace () in
          Packed.write_file path' t;
          let w = Packed.Writer.create path ~length:(Packed.length t) in
          Packed.iter
            (fun a ->
              Packed.Writer.emit w ~kind:a.Access.kind ?var:a.Access.var
                ~gap:a.Access.gap a.Access.addr)
            t;
          Packed.Writer.close w;
          check_bool "byte-identical to write_file" true
            (read_bytes path = read_bytes path');
          check_bool "maps back equal" true
            (Packed.equal t (Packed.map_file path))))

(* Lengths around the writer's chunk size, with kinds, gaps and var tags
   varying per access: every length flushes a different partial chunk. *)
let test_writer_chunk_edges () =
  let chunk = Packed.Writer.chunk in
  let vars = [| None; Some "x"; Some "y"; None; Some "zz" |] in
  let trace n =
    Packed.of_list
      (List.init n (fun i ->
           Access.make
             ~kind:(Packed.kind_of_code (i mod 3))
             ?var:vars.(i mod Array.length vars)
             ~gap:(i mod 7) (i * 24)))
  in
  List.iter
    (fun n ->
      with_tmp "chunk_writer" (fun path ->
          with_tmp "chunk_file" (fun path' ->
              let t = trace n in
              Packed.write_file path' t;
              let w = Packed.Writer.create path ~length:n in
              Packed.iter (Packed.Writer.add w) t;
              Packed.Writer.close w;
              check_bool
                (Printf.sprintf "length %d: byte-identical to write_file" n)
                true
                (read_bytes path = read_bytes path'))))
    [ 0; 1; chunk - 1; chunk; chunk + 1 ]

let test_writer_misuse () =
  with_tmp "misuse" (fun path ->
      let w = Packed.Writer.create path ~length:2 in
      Packed.Writer.emit w 1;
      (* closing before the declared length is an error: the header's count
         would lie about the columns *)
      rejects (fun () -> Packed.Writer.close w));
  with_tmp "overflow" (fun path ->
      let w = Packed.Writer.create path ~length:1 in
      Packed.Writer.emit w 1;
      rejects (fun () -> Packed.Writer.emit w 2));
  with_tmp "negative" (fun path ->
      let w = Packed.Writer.create path ~length:1 in
      rejects (fun () -> Packed.Writer.emit w ~gap:(-1) 4))

(* --- Trace_file interop ------------------------------------------------- *)

let test_text_loader_names_packed_files () =
  with_tmp "interop" (fun path ->
      Packed.write_file path (golden_trace ());
      (* the text loader must identify the format, not drown in NUL bytes *)
      rejects ~substring:"packed" (fun () ->
          Memtrace.Trace_file.load ~path))

let test_load_packed_dispatches () =
  with_tmp "dispatch_bin" (fun bin ->
      with_tmp "dispatch_txt" (fun txt ->
          let t = golden_trace () in
          Packed.write_file bin t;
          Memtrace.Trace_file.save ~path:txt (Packed.to_trace t);
          check_bool "binary loads" true
            (Packed.equal t (Memtrace.Trace_file.load_packed ~path:bin));
          check_bool "text loads" true
            (Packed.equal t (Memtrace.Trace_file.load_packed ~path:txt))))

(* The regression the interop fix pins: a packed trace written to disk,
   mapped back, and replayed must produce Run_stats identical to replaying
   the in-memory trace — including the per-request latency distribution. *)
let test_mapped_replay_equals_in_memory () =
  let gen =
    Workloads.Gen.emit ~seed:91 ~n:6000 ~accesses_per_request:5
      (Workloads.Gen.Zipf { items = 1024; theta = 0.9 })
  in
  let packed = gen.Workloads.Gen.packed in
  with_tmp "replay" (fun path ->
      Packed.write_file path packed;
      let mapped = Packed.map_file path in
      let cfg =
        Machine.System.config
          (Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ())
      in
      let run p =
        Machine.System.run_packed_requests
          (Machine.System.create cfg)
          p ~requests:gen.Workloads.Gen.requests
      in
      let mem = run packed in
      let disk = run mapped in
      check_bool "aggregate stats identical" true
        (mem = { disk with Machine.Run_stats.requests = mem.requests });
      check_bool "latency distributions identical" true
        (Machine.Latency.equal mem.Machine.Run_stats.requests
           disk.Machine.Run_stats.requests))

let suites =
  [
    ( "memtrace.packed_file",
      [
        Alcotest.test_case "golden byte-pinned header" `Quick
          test_golden_header;
        Alcotest.test_case "bad magic rejected" `Quick test_reject_bad_magic;
        Alcotest.test_case "version mismatch rejected" `Quick
          test_reject_version_mismatch;
        Alcotest.test_case "truncated file rejected" `Quick
          test_reject_truncated;
        Alcotest.test_case "byte-order probe rejected" `Quick
          test_reject_probe_mismatch;
        Alcotest.test_case "offset mismatch rejected" `Quick
          test_reject_offset_mismatch;
        Alcotest.test_case "fixed round-trip" `Quick test_roundtrip_fixed;
        Alcotest.test_case "empty round-trip" `Quick test_roundtrip_empty;
        Alcotest.test_case "max-address round-trip" `Quick
          test_roundtrip_max_address;
        QCheck_alcotest.to_alcotest qcheck_mmap_roundtrip;
        Alcotest.test_case "Writer = write_file byte-for-byte" `Quick
          test_writer_equals_write_file;
        Alcotest.test_case "Writer = write_file at chunk edges" `Quick
          test_writer_chunk_edges;
        Alcotest.test_case "Writer misuse rejected" `Quick test_writer_misuse;
        Alcotest.test_case "text loader names packed files" `Quick
          test_text_loader_names_packed_files;
        Alcotest.test_case "load_packed dispatches on magic" `Quick
          test_load_packed_dispatches;
        Alcotest.test_case "mapped replay = in-memory replay" `Quick
          test_mapped_replay_equals_in_memory;
      ] );
  ]
