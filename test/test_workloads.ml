(* Tests for the workloads: the MPEG kernels' semantics and trace
   properties, the LZ77 compressor's correctness, and the extra kernels. *)

module Trace = Memtrace.Trace
module Access = Memtrace.Access
module Mpeg = Workloads.Mpeg
module Lz77 = Workloads.Lz77
module Kernels = Workloads.Kernels

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mpeg_layout = Ir.Interp.sequential_layout Mpeg.program
let run_mpeg proc = Ir.Interp.run ~init:Mpeg.init Mpeg.program ~proc ~layout:mpeg_layout

(* --- MPEG semantics --- *)

let test_dequant_values () =
  let r = run_mpeg "dequant" in
  let dq = r.Ir.Interp.memory "dq" in
  (* recompute a few elements independently *)
  let ok = ref true in
  for idx = 0 to 255 do
    let c = Mpeg.init "coeff" idx in
    let expected =
      if c = 0 then 0
      else
        let v = c * Mpeg.init "quant_tbl" (idx mod 64) * Mpeg.init "qscale" 0 in
        let v = v asr 4 in
        max (min v 2047) (-2048)
    in
    if dq.(idx) <> expected then ok := false
  done;
  check_bool "dequant matches reference" true !ok

let test_dequant_branches_both_ways () =
  let zeros = ref 0 and nonzeros = ref 0 in
  for idx = 0 to 255 do
    if Mpeg.init "coeff" idx = 0 then incr zeros else incr nonzeros
  done;
  check_bool "some zero coefficients" true (!zeros > 20);
  check_bool "some nonzero coefficients" true (!nonzeros > 20)

let test_plus_saturates () =
  let r = run_mpeg "plus" in
  let recon = r.Ir.Interp.memory "recon" in
  Array.iter (fun v -> check_bool "clamped to [0,255]" true (v >= 0 && v <= 255)) recon

let test_idct_roundtrip_magnitude () =
  (* not a numerical-precision test: just that the transform ran and wrote
     clamped outputs everywhere *)
  let r = run_mpeg "idct" in
  let blocks = r.Ir.Interp.memory "blocks" in
  check_int "all elements" 1024 (Array.length blocks);
  Array.iter
    (fun v -> check_bool "output clamped" true (v >= -256 && v <= 255))
    blocks

let test_mpeg_main_runs_all () =
  let t_main = (run_mpeg "mpeg").Ir.Interp.trace in
  let parts =
    List.map (fun p -> Trace.length (run_mpeg p).Ir.Interp.trace) Mpeg.routines
  in
  check_int "main = sum of routines"
    (List.fold_left ( + ) 0 parts)
    (Trace.length t_main)

(* --- MPEG trace/data-shape facts the experiments rely on --- *)

let test_mpeg_footprints () =
  (* the paper's premise: dequant and plus fit in 2 KB, idct does not *)
  check_bool "dequant fits 2KB" true (Mpeg.total_bytes ~proc:"dequant" <= 2048);
  check_bool "plus fits 2KB" true (Mpeg.total_bytes ~proc:"plus" <= 2048);
  check_bool "idct exceeds 2KB" true (Mpeg.total_bytes ~proc:"idct" > 2048)

let test_mpeg_traces_tagged () =
  List.iter
    (fun proc ->
      let trace = (run_mpeg proc).Ir.Interp.trace in
      check_bool (proc ^ " fully tagged") true
        (Trace.fold (fun acc a -> acc && a.Access.var <> None) true trace))
    Mpeg.routines

let test_mpeg_vars_for () =
  let vars = Mpeg.vars_for ~proc:"plus" in
  check_bool "pred listed" true (List.mem_assoc "pred" vars);
  check_bool "dq listed" true (List.mem_assoc "dq" vars);
  check_bool "blocks not in plus" false (List.mem_assoc "blocks" vars)

let test_mpeg_idct_two_passes () =
  (* the trace must revisit each blocks line after the row pass: cross-pass
     reuse is what the experiment depends on *)
  let trace = (run_mpeg "idct").Ir.Interp.trace in
  let blocks = Trace.filter_var trace "blocks" in
  let base = List.assoc "blocks" mpeg_layout in
  let first_addr = base in
  let touches =
    Trace.fold
      (fun acc a -> if a.Access.addr = first_addr then acc + 1 else acc)
      0 blocks
  in
  (* element 0: read+write in the row pass, read+write in the column pass *)
  check_int "block element touched by both passes" 4 touches

(* --- LZ77 --- *)

let test_lz77_roundtrip () =
  let input = Lz77.synthetic_input ~seed:3 ~len:4096 in
  let r = Lz77.compress ~input () in
  Alcotest.(check string) "decompress inverts compress" input (Lz77.decompress r.Lz77.tokens)

let test_lz77_roundtrip_edge_cases () =
  List.iter
    (fun input ->
      let r = Lz77.compress ~input () in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %S" (String.sub input 0 (min 12 (String.length input))))
        input
        (Lz77.decompress r.Lz77.tokens))
    [
      "";
      "a";
      "ab";
      "aaaaaaaaaaaaaaaaaaaaaaaa";
      "abcabcabcabcabcabc";
      String.make 300 'x';
      "no repeats here!?";
    ]

let test_lz77_actually_compresses () =
  let input = Lz77.synthetic_input ~seed:1 ~len:8192 in
  let r = Lz77.compress ~input () in
  let matches =
    List.length (List.filter (function Lz77.Match _ -> true | Lz77.Literal _ -> false) r.Lz77.tokens)
  in
  check_bool "synthetic input yields matches" true (matches > 100)

let test_lz77_trace_structure () =
  let trace = Lz77.trace ~seed:2 ~input_len:2048 ~base:0x100000 () in
  let vars = Trace.vars trace in
  List.iter
    (fun v -> check_bool (v ^ " present") true (List.mem v vars))
    [ "inbuf"; "window"; "hash_head"; "hash_prev"; "outbuf" ];
  (* all addresses live in the job's address space *)
  match Trace.addr_range trace with
  | Some (lo, hi) ->
      check_bool "above base" true (lo >= 0x100000);
      check_bool "below base + 64K" true (hi < 0x100000 + 0x10000)
  | None -> Alcotest.fail "empty trace"

let test_lz77_deterministic () =
  let t1 = Lz77.trace ~seed:9 ~input_len:1024 ~base:0 () in
  let t2 = Lz77.trace ~seed:9 ~input_len:1024 ~base:0 () in
  check_bool "same seed same trace" true (Trace.equal t1 t2)

(* The experiments build their LZ77 jobs with [packed_trace]: it must equal
   packing [trace] for the (seed, length, base) of the multitask-domains
   jobs and the MRC-scaling trace (Fig. 5's jobs are pinned by its output,
   test/fig5.t). *)
let test_lz77_packed_equals_trace () =
  let cases =
    [ (1, 4096, 0x000000); (2, 4096, 0x100000); (3, 4096, 0x200000);
      (11, 8192, 0) ]
  in
  List.iter
    (fun (seed, input_len, base) ->
      check_bool
        (Printf.sprintf "seed %d, %d bytes, base 0x%x" seed input_len base)
        true
        (Memtrace.Packed.equal
           (Lz77.packed_trace ~seed ~input_len ~base ())
           (Memtrace.Packed.of_trace (Lz77.trace ~seed ~input_len ~base ()))))
    cases

(* MD5 of a packed trace's four columns, access by access, then its var
   table. *)
let packed_digest p =
  let module P = Memtrace.Packed in
  let addrs = P.raw_addrs p and gaps = P.raw_gaps p in
  let kinds = P.raw_kinds p and tags = P.raw_tags p in
  let buf = Buffer.create ((25 * P.length p) + 64) in
  for i = 0 to P.length p - 1 do
    Buffer.add_int64_le buf (Int64.of_int addrs.{i});
    Buffer.add_int64_le buf (Int64.of_int gaps.{i});
    Buffer.add_char buf kinds.{i};
    Buffer.add_int64_le buf (Int64.of_int tags.{i})
  done;
  Array.iter
    (fun v ->
      Buffer.add_string buf v;
      Buffer.add_char buf '\000')
    (P.var_table p);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The jobs of every experiment and of test/fig5.t, pinned by the length
   and digest the generator produced before its emission path was rebuilt
   around a counting pass. [packed_trace] and [trace] share one compressor
   core, so comparing them to each other cannot catch a change to it. *)
let lz77_pins =
  [
    (1, 12288, 0x000000, 325780, "d4fc66ab32258af5aa359bc4f9274c0b");
    (2, 12288, 0x100000, 327809, "428646dce3f4eee53bae1dcc21adb5d0");
    (3, 12288, 0x200000, 329282, "2a186c1284ed74ad48381cc8d29f1c5c");
    (1, 8192, 0x000000, 212679, "3d2f33ee442ad738c21c67259dfb95a9");
    (2, 8192, 0x100000, 211598, "dd7490fb57a65d0d8220f440e8353a52");
    (3, 8192, 0x200000, 214655, "87868a068cc3642b57d01500622ac3f7");
    (1, 4096, 0x000000, 98241, "16e8594c030b1a184ca8d57494de79ab");
    (2, 4096, 0x100000, 97696, "3b642c5cbd51c91d79c3c3d5c2c369b2");
    (3, 4096, 0x200000, 99133, "8e70671feb68f22afc2d82b0c15cef00");
    (1, 1024, 0x000000, 15573, "78f37e93f1fd38bd0634d4a411446b94");
    (2, 1024, 0x100000, 15606, "856f4e457eb8410727804e1e648b8022");
    (3, 1024, 0x200000, 15401, "8afa95d68076a218a8ca580867630141");
    (11, 8192, 0x000000, 213044, "9cae0d233d8d3f74267cf36d2c565332");
  ]

let test_lz77_pinned () =
  List.iter
    (fun (seed, input_len, base, len, digest) ->
      let p = Lz77.packed_trace ~seed ~input_len ~base () in
      let name =
        Printf.sprintf "seed %d, %d bytes, base 0x%x" seed input_len base
      in
      check_int (name ^ ": length") len (Memtrace.Packed.length p);
      Alcotest.(check string) (name ^ ": digest") digest (packed_digest p);
      Alcotest.(check (array string))
        (name ^ ": var table")
        [| "inbuf"; "hash_head"; "outbuf"; "hash_prev"; "window" |]
        (Memtrace.Packed.var_table p))
    lz77_pins

let test_lz77_match_distances_bounded () =
  let input = Lz77.synthetic_input ~seed:5 ~len:8192 in
  let r = Lz77.compress ~input () in
  List.iter
    (function
      | Lz77.Match { distance; length } ->
          check_bool "distance bounded" true
            (distance > 0 && distance <= Lz77.window_size);
          check_bool "length sane" true (length >= 3 && length <= 32)
      | Lz77.Literal _ -> ())
    r.Lz77.tokens

let test_lz77_oversized_input_rejected () =
  check_bool "raises" true
    (try
       ignore (Lz77.compress ~input:(String.make 20000 'a') ());
       false
     with Invalid_argument _ -> true)

(* --- JPEG front end --- *)

module Jpeg = Workloads.Jpeg

let jpeg_layout = Ir.Interp.sequential_layout Jpeg.program
let run_jpeg proc = Ir.Interp.run ~init:Jpeg.init Jpeg.program ~proc ~layout:jpeg_layout

let test_jpeg_color_convert_reference () =
  let r = run_jpeg "color_convert" in
  let ycc = r.Ir.Interp.memory "ycc" in
  let ok = ref true in
  for p = 0 to 255 do
    let red = Jpeg.init "rgb" (3 * p) in
    let green = Jpeg.init "rgb" ((3 * p) + 1) in
    let blue = Jpeg.init "rgb" ((3 * p) + 2) in
    let y = ((77 * red) + (150 * green) + (29 * blue)) asr 8 in
    if ycc.(p) <> y then ok := false
  done;
  check_bool "luma matches reference" true !ok

let test_jpeg_zigzag_is_permutation () =
  let seen = Array.make 64 false in
  for k = 0 to 63 do
    let z = Jpeg.init "zigzag" k in
    check_bool "in range" true (z >= 0 && z < 64);
    check_bool "no duplicate" false seen.(z);
    seen.(z) <- true
  done

let test_jpeg_quantization_sparsity () =
  let r = run_jpeg "jpeg" in
  let out = r.Ir.Interp.memory "coeff_out" in
  let zeros = Array.fold_left (fun acc v -> if v = 0 then acc + 1 else acc) 0 out in
  check_bool "some coefficients quantize to zero" true (zeros > 100);
  check_bool "some survive" true (zeros < Array.length out)

let test_jpeg_main_runs_all () =
  let t_main = (run_jpeg "jpeg").Ir.Interp.trace in
  let parts =
    List.map (fun p -> Trace.length (run_jpeg p).Ir.Interp.trace) Jpeg.routines
  in
  check_int "main = sum of routines"
    (List.fold_left ( + ) 0 parts)
    (Trace.length t_main)

let test_jpeg_exceeds_onchip () =
  check_bool "whole app exceeds 2KB" true (Jpeg.total_bytes ~proc:"jpeg" > 2048)

(* --- extra kernels --- *)

let test_matmul_correct () =
  let n = 6 in
  let p = Kernels.matmul ~n in
  let layout = Ir.Interp.sequential_layout p in
  let r = Ir.Interp.run ~init:Kernels.init p ~proc:"matmul" ~layout in
  let c = r.Ir.Interp.memory "c" in
  let a i j = Kernels.init "a" ((i * n) + j) in
  let b i j = Kernels.init "b" ((i * n) + j) in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let expected = ref 0 in
      for k = 0 to n - 1 do
        expected := !expected + (a i k * b k j)
      done;
      if c.((i * n) + j) <> !expected then ok := false
    done
  done;
  check_bool "matmul matches reference" true !ok

let test_fir_correct () =
  let taps = 4 and samples = 16 in
  let p = Kernels.fir ~taps ~samples in
  let layout = Ir.Interp.sequential_layout p in
  let r = Ir.Interp.run ~init:Kernels.init p ~proc:"fir" ~layout in
  let out = r.Ir.Interp.memory "output" in
  let coeff k = Kernels.init "coeffs" k in
  let input k = Kernels.init "input" k in
  let ok = ref true in
  for t = 0 to samples - 1 do
    let acc = ref 0 in
    for k = 0 to taps - 1 do
      acc := !acc + (coeff k * input (t + k))
    done;
    if out.(t) <> !acc asr 8 then ok := false
  done;
  check_bool "fir matches reference" true !ok

let test_histogram_conserves_mass () =
  let bins = 16 and samples = 200 in
  let p = Kernels.histogram ~bins ~samples in
  let layout = Ir.Interp.sequential_layout p in
  let r = Ir.Interp.run ~init:Kernels.init p ~proc:"histogram" ~layout in
  let bin = r.Ir.Interp.memory "bin" in
  check_int "every sample lands in one bin" samples (Array.fold_left ( + ) 0 bin)

(* --- properties --- *)

let prop_lz77_roundtrip =
  QCheck.Test.make ~name:"lz77 roundtrips arbitrary strings" ~count:200
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 600) QCheck.Gen.printable)
    (fun input ->
      let r = Lz77.compress ~input () in
      Lz77.decompress r.Lz77.tokens = input)

let prop_lz77_token_lengths_cover_input =
  QCheck.Test.make ~name:"lz77 token lengths sum to input length" ~count:100
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 400) QCheck.Gen.printable)
    (fun input ->
      let r = Lz77.compress ~input () in
      let total =
        List.fold_left
          (fun acc t ->
            acc + match t with Lz77.Literal _ -> 1 | Lz77.Match { length; _ } -> length)
          0 r.Lz77.tokens
      in
      total = String.length input)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lz77_roundtrip; prop_lz77_token_lengths_cover_input ]

let suites =
  [
    ( "workloads.mpeg",
      [
        Alcotest.test_case "dequant values" `Quick test_dequant_values;
        Alcotest.test_case "dequant branches" `Quick test_dequant_branches_both_ways;
        Alcotest.test_case "plus saturates" `Quick test_plus_saturates;
        Alcotest.test_case "idct outputs clamped" `Quick test_idct_roundtrip_magnitude;
        Alcotest.test_case "main = all routines" `Quick test_mpeg_main_runs_all;
        Alcotest.test_case "footprints (paper premise)" `Quick test_mpeg_footprints;
        Alcotest.test_case "traces tagged" `Quick test_mpeg_traces_tagged;
        Alcotest.test_case "vars_for" `Quick test_mpeg_vars_for;
        Alcotest.test_case "idct two passes" `Quick test_mpeg_idct_two_passes;
      ] );
    ( "workloads.lz77",
      [
        Alcotest.test_case "roundtrip" `Quick test_lz77_roundtrip;
        Alcotest.test_case "roundtrip edge cases" `Quick test_lz77_roundtrip_edge_cases;
        Alcotest.test_case "compresses" `Quick test_lz77_actually_compresses;
        Alcotest.test_case "trace structure" `Quick test_lz77_trace_structure;
        Alcotest.test_case "deterministic" `Quick test_lz77_deterministic;
        Alcotest.test_case "packed_trace = packed trace" `Quick
          test_lz77_packed_equals_trace;
        Alcotest.test_case "pinned jobs" `Quick test_lz77_pinned;
        Alcotest.test_case "match bounds" `Quick test_lz77_match_distances_bounded;
        Alcotest.test_case "oversized input" `Quick test_lz77_oversized_input_rejected;
      ] );
    ( "workloads.jpeg",
      [
        Alcotest.test_case "color convert reference" `Quick test_jpeg_color_convert_reference;
        Alcotest.test_case "zigzag permutation" `Quick test_jpeg_zigzag_is_permutation;
        Alcotest.test_case "quantization sparsity" `Quick test_jpeg_quantization_sparsity;
        Alcotest.test_case "main = all routines" `Quick test_jpeg_main_runs_all;
        Alcotest.test_case "exceeds on-chip memory" `Quick test_jpeg_exceeds_onchip;
      ] );
    ( "workloads.kernels",
      [
        Alcotest.test_case "matmul" `Quick test_matmul_correct;
        Alcotest.test_case "fir" `Quick test_fir_correct;
        Alcotest.test_case "histogram" `Quick test_histogram_conserves_mass;
      ] );
    ("workloads.properties", qcheck_cases);
  ]
