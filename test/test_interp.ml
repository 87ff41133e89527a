(* The interpreter against its reference: Ir.Interp resolves every name
   before it runs, Interp_ref (the tree walker it replaced) looks each one
   up where it is used. On random programs and on hand-written ones that
   trap, both must emit the same trace (accesses and var table), leave the
   same memory and raise the same error. The workload traces are pinned by
   digests recorded with the tree walker. *)

module Packed = Memtrace.Packed
module Interp = Ir.Interp
module Ast = Ir.Ast

type outcome =
  | Finished of Packed.t * (string * int array) list
  | Failed of string

let outcome run ?init ?max_steps program ~proc ~layout =
  match run ?init ?max_steps program ~proc ~layout with
  | packed, memory ->
      Finished
        ( packed,
          List.map (fun v -> (v.Ast.name, memory v.Ast.name)) program.Ast.vars
        )
  | exception Interp.Interp_error msg -> Failed ("Interp_error: " ^ msg)
  | exception Interp_ref.Interp_error msg -> Failed ("Interp_error: " ^ msg)
  | exception Invalid_argument msg -> Failed ("Invalid_argument: " ^ msg)

let same_outcome a b =
  match (a, b) with
  | Finished (pa, ma), Finished (pb, mb) ->
      Packed.equal pa pb && Packed.var_table pa = Packed.var_table pb && ma = mb
  | Failed a, Failed b -> String.equal a b
  | Finished _, Failed _ | Failed _, Finished _ -> false

let describe = function
  | Finished (p, _) ->
      Printf.sprintf "%d accesses, vars [%s]" (Packed.length p)
        (String.concat "; " (Array.to_list (Packed.var_table p)))
  | Failed msg -> msg

(* Run both interpreters; fail unless they agree, and return the outcome. *)
let agree ?init ?max_steps ?layout ?(proc = "main") program =
  let layout =
    match layout with Some l -> l | None -> Interp.sequential_layout program
  in
  let mine = outcome Interp.run_packed ?init ?max_steps program ~proc ~layout in
  let reference =
    outcome Interp_ref.run_packed ?init ?max_steps program ~proc ~layout
  in
  if not (same_outcome mine reference) then
    Alcotest.failf "interpreter: %s; reference: %s" (describe mine)
      (describe reference);
  mine

let expect_error ?max_steps ?layout ?proc program expected =
  match agree ?max_steps ?layout ?proc program with
  | Failed msg -> Alcotest.(check string) "error" expected msg
  | Finished _ -> Alcotest.failf "expected %s, the run finished" expected

(* --- random programs ------------------------------------------------------ *)

let init_of_seed seed name idx = (Hashtbl.hash (seed, name, idx) mod 41) - 12

let prop_random_programs =
  QCheck.Test.make ~name:"random programs match the reference" ~count:300
    QCheck.small_nat (fun seed ->
      let program = Check.Wcet_diff.gen_program (Check.Prng.create ~seed) in
      let layout =
        Interp.sequential_layout
          ~base:(16 * (seed mod 5))
          ~align:(List.nth [ 4; 8; 16; 64 ] (seed mod 4))
          program
      in
      let init = if seed mod 3 = 0 then None else Some (init_of_seed seed) in
      match agree ?init ~layout program with
      | Finished _ -> true
      | Failed msg -> QCheck.Test.fail_reportf "seed %d trapped: %s" seed msg)

(* --- hand-written programs that trap -------------------------------------- *)

(* [Ast.program] records built directly are not validated, so they can name
   what does not exist. *)
let unvalidated vars body = { Ast.vars; procs = [ { Ast.proc_name = "main"; body } ] }

let a16 = Ir.Build.array "a" ~elems:16 ()
let x = Ir.Build.scalar "x" ()

let test_out_of_bounds () =
  let open Ir.Build in
  expect_error
    (program ~vars:[ a16; x ]
       [ proc "main" [ set "x" (i 1); set "x" (ld "a" (i 16)) ] ])
    "Interp_error: a[16] out of bounds (0..15)";
  expect_error
    (program ~vars:[ a16; x ] [ proc "main" [ st "a" (s "x" - i 1) (i 7) ] ])
    "Interp_error: a[-1] out of bounds (0..15)"

let test_division_by_zero () =
  let open Ir.Build in
  expect_error
    (program ~vars:[ x ] [ proc "main" [ set "x" (i 4 / s "x") ] ])
    "Interp_error: division by zero";
  expect_error
    (program ~vars:[ x ] [ proc "main" [ set "x" (i 4 % (s "x" * i 2)) ] ])
    "Interp_error: modulo by zero"

let test_uninitialized_register () =
  let open Ir.Build in
  expect_error
    (program ~vars:[ x ] [ proc "main" [ set "x" (s "x" + r "q") ] ])
    "Interp_error: uninitialized register %q";
  (* a loop register is undefined again after its loop *)
  expect_error
    (program ~vars:[ a16 ]
       [
         proc "main"
           [ for_ "k" (i 0) (i 2) [ st "a" (r "k") (r "k") ]; st "a" (r "k") (i 0) ];
       ])
    "Interp_error: uninitialized register %k"

let test_for_restores_register () =
  let open Ir.Build in
  match
    agree
      (program ~vars:[ a16 ]
         [
           proc "main"
             [
               setr "k" (i 9);
               for_ "k" (i 0) (i 3) [ st "a" (r "k") (r "k"); setr "k" (i 12) ];
               st "a" (r "k") (i 1);
             ];
         ])
  with
  | Finished (p, memory) ->
      Alcotest.(check (list int)) "addresses" [ 0; 4; 8; 36 ]
        (List.map (fun a -> a.Memtrace.Access.addr) (Packed.to_list p));
      Alcotest.(check int) "a[9]" 1 (List.assoc "a" memory).(9)
  | Failed msg -> Alcotest.fail msg

let test_runaway_while () =
  let open Ir.Build in
  expect_error ~max_steps:1000
    (program ~vars:[ x ]
       [
         proc "main"
           [ while_ (lt (i 0) (i 1)) ~est_iterations:10 [ set "x" (s "x" + i 1) ] ];
       ])
    "Interp_error: exceeded max_steps (1000): runaway loop?";
  (* the While and each of its tests count as a step: 1 set, the While,
     3 tests and 2 body statements make 7 *)
  let countdown =
    program ~vars:[ x ]
      [
        proc "main"
          [
            set "x" (i 2);
            while_ (lt (i 0) (s "x")) ~est_iterations:2 [ set "x" (s "x" - i 1) ];
          ];
      ]
  in
  (match agree ~max_steps:7 countdown with
  | Finished _ -> ()
  | Failed msg -> Alcotest.fail msg);
  expect_error ~max_steps:6 countdown
    "Interp_error: exceeded max_steps (6): runaway loop?"

let test_unknown_variable () =
  let open Ir.Build in
  let unknown = "Interp_error: unknown variable nope" in
  expect_error (unvalidated [ x ] [ set "x" (s "nope") ]) unknown;
  expect_error (unvalidated [ x ] [ set "x" (ld "nope" (s "x")) ]) unknown;
  expect_error (unvalidated [ x ] [ st "nope" (i 0) (s "x") ]) unknown;
  expect_error (unvalidated [ x ] [ set "nope" (s "x") ]) unknown;
  (* the operands are evaluated before the name is looked up *)
  expect_error
    (unvalidated [ x ] [ st "nope" (r "q") (s "x") ])
    "Interp_error: uninitialized register %q";
  expect_error
    (unvalidated [ x ] [ set "nope" (i 1 / i 0) ])
    "Interp_error: division by zero";
  (* a name on a path not taken never fails *)
  match
    agree
      (unvalidated [ x ]
         [ if_ (lt (s "x") (i 0)) [ set "nope" (i 1); call "gone" ]; set "x" (i 3) ])
  with
  | Finished (p, _) ->
      Alcotest.(check int) "the test's load, the store" 2 (Packed.length p)
  | Failed msg -> Alcotest.fail msg

let test_unknown_procedure () =
  let open Ir.Build in
  expect_error
    (unvalidated [ x ] [ set "x" (i 1); call "gone" ])
    "Interp_error: unknown procedure gone";
  expect_error ~proc:"absent" (unvalidated [ x ] [])
    "Interp_error: unknown procedure absent";
  (* recursion, which validation rejects, runs into max_steps *)
  expect_error ~max_steps:100
    (unvalidated [ x ] [ set "x" (s "x" + i 1); call "main" ])
    "Interp_error: exceeded max_steps (100): runaway loop?"

let test_missing_from_layout () =
  let open Ir.Build in
  expect_error ~layout:[ ("x", 0) ]
    (program ~vars:[ a16; x ] [ proc "main" [ set "x" (i 1); st "a" (i 2) (i 3) ] ])
    "Interp_error: a missing from layout"

let test_unvalidated_shapes () =
  let open Ir.Build in
  (* a duplicate declaration: cells of the last, shape and base of the first *)
  ignore
    (agree
       (unvalidated
          [ Ir.Build.array "a" ~elems:4 (); Ir.Build.array "a" ~elems:8 () ]
          [ st "a" (i 3) (i 1); set "a" (i 2) ]));
  expect_error
    (unvalidated
       [ Ir.Build.array "a" ~elems:4 (); Ir.Build.array "a" ~elems:8 () ]
       [ st "a" (i 5) (i 1) ])
    "Interp_error: a[5] out of bounds (0..3)";
  (* an empty array fails on its cells before its bounds *)
  expect_error
    (unvalidated
       [ { (Ir.Build.array "e" ~elems:1 ()) with Ast.elems = 0 } ]
       [ set "e" (i 1) ])
    "Invalid_argument: index out of bounds"

let test_for_bounds_order () =
  let open Ir.Build in
  let p =
    program
      ~vars:[ scalar "lo" (); scalar "hi" (); a16 ]
      [ proc "main" [ for_ "k" (s "lo") (s "hi") [ st "a" (r "k") (i 1) ] ] ]
  in
  let init name _ = if name = "hi" then 2 else 0 in
  match agree ~init p with
  | Finished (packed, _) ->
      Alcotest.(check (list (option string)))
        "lo, then hi, then the body"
        [ Some "lo"; Some "hi"; Some "a"; Some "a" ]
        (List.map (fun a -> a.Memtrace.Access.var) (Packed.to_list packed))
  | Failed msg -> Alcotest.fail msg

(* --- the workload traces, pinned ------------------------------------------ *)

let trace_digest p =
  let b = Buffer.create 4096 in
  Array.iter
    (fun v ->
      Buffer.add_string b v;
      Buffer.add_char b ',')
    (Packed.var_table p);
  Buffer.add_char b '\n';
  Packed.iter
    (fun a ->
      Buffer.add_string b (Memtrace.Access.to_string a);
      Buffer.add_char b '\n')
    p;
  Digest.to_hex (Digest.string (Buffer.contents b))

let paper_cache = Cache.Sassoc.config ~line_size:16 ~size_bytes:2048 ~ways:4 ()

let check_pins ~init program pins =
  let t = Colcache.Pipeline.make ~init ~cache:paper_cache program in
  List.iter
    (fun (proc, len, digest) ->
      let p = Colcache.Pipeline.packed_trace_of t ~proc in
      Alcotest.(check int) (proc ^ " accesses") len (Packed.length p);
      Alcotest.(check string) (proc ^ " digest") digest (trace_digest p);
      let layout =
        Layout.Address_map.to_ir_layout t.Colcache.Pipeline.address_map
      in
      ignore (agree ~init ~layout ~proc program))
    pins

let test_mpeg_pins () =
  check_pins ~init:Workloads.Mpeg.init Workloads.Mpeg.program
    [
      ("dequant", 820, "6d0b01a58fc28517b2f26890e4cd2564");
      ("plus", 768, "3832200fb9af7901f404e9f520ae0eb9");
      ("idct", 20480, "165ceade9596d393e61774e3fe8b6183");
    ]

let test_jpeg_pins () =
  check_pins ~init:Workloads.Jpeg.init Workloads.Jpeg.program
    [
      ("color_convert", 1536, "af8e4ae6fc2e5c1aa4eb2b3c09d35e94");
      ("fdct", 15360, "2338812015795ec8e1cb9edc46b68c31");
      ("quant_zigzag", 3072, "c3016f2653e27462d861a7af0b784ce8");
    ]

let test_kernel_pins () =
  check_pins ~init:Workloads.Kernels.init
    (Workloads.Kernels.fir ~taps:32 ~samples:2048)
    [ ("fir", 133120, "2901712330b2a1518e52672a4d62334a") ];
  check_pins ~init:Workloads.Kernels.init
    (Workloads.Kernels.hot_walk ~hot_elems:192 ~passes:20)
    [ ("hot_walk", 3880, "99f6956316d802704b935f68db99a2d5") ]

let suites =
  [
    ( "ir.interp_ref",
      [
        QCheck_alcotest.to_alcotest prop_random_programs;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "division by zero" `Quick test_division_by_zero;
        Alcotest.test_case "uninitialized register" `Quick
          test_uninitialized_register;
        Alcotest.test_case "For restores its register" `Quick
          test_for_restores_register;
        Alcotest.test_case "runaway While" `Quick test_runaway_while;
        Alcotest.test_case "unknown variable" `Quick test_unknown_variable;
        Alcotest.test_case "unknown procedure" `Quick test_unknown_procedure;
        Alcotest.test_case "missing from layout" `Quick
          test_missing_from_layout;
        Alcotest.test_case "unvalidated shapes" `Quick test_unvalidated_shapes;
        Alcotest.test_case "For bounds: lo, then hi" `Quick
          test_for_bounds_order;
      ] );
    ( "ir.interp_pins",
      [
        Alcotest.test_case "MPEG traces" `Quick test_mpeg_pins;
        Alcotest.test_case "JPEG traces" `Quick test_jpeg_pins;
        Alcotest.test_case "fir and hot_walk traces" `Quick test_kernel_pins;
      ] );
  ]
