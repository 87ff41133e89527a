(* Tests for the profile library: lifetime extraction, overlap computation
   and the paper's conflict-weight function. *)

module Access = Memtrace.Access
module Trace = Memtrace.Trace
module Lifetime = Profile.Lifetime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk specs =
  (* specs: (var, addr) list, in trace order *)
  Trace.of_list (List.map (fun (var, addr) -> Access.make ~var addr) specs)

let summary_of trace var = List.assoc var (Lifetime.of_trace trace)

(* --- summary construction --- *)

let test_summary_validation () =
  check_bool "last < first rejected" true
    (try ignore (Lifetime.summary ~accesses:1. ~first:5 ~last:2 ()); false
     with Invalid_argument _ -> true);
  check_bool "negative accesses rejected" true
    (try ignore (Lifetime.summary ~accesses:(-1.) ~first:0 ~last:2 ()); false
     with Invalid_argument _ -> true);
  check_bool "descending positions rejected" true
    (try
       ignore (Lifetime.summary ~positions:[| 3; 1 |] ~accesses:2. ~first:1 ~last:3 ());
       false
     with Invalid_argument _ -> true);
  check_bool "positions outside lifetime rejected" true
    (try
       ignore (Lifetime.summary ~positions:[| 0; 9 |] ~accesses:2. ~first:1 ~last:3 ());
       false
     with Invalid_argument _ -> true)

(* --- of_trace --- *)

let test_of_trace_basic () =
  let t = mk [ ("a", 0); ("b", 4); ("a", 8); ("b", 12); ("b", 16) ] in
  let a = summary_of t "a" and b = summary_of t "b" in
  check_int "a first" 0 a.Lifetime.first;
  check_int "a last" 2 a.Lifetime.last;
  check_bool "a accesses" true (a.Lifetime.accesses = 2.);
  check_int "b first" 1 b.Lifetime.first;
  check_int "b last" 4 b.Lifetime.last;
  check_bool "b positions" true (b.Lifetime.positions = Some [| 1; 3; 4 |])

let test_of_trace_order_and_untagged () =
  let t =
    Trace.of_list
      [ Access.make 0; Access.make ~var:"z" 4; Access.make ~var:"a" 8 ]
  in
  Alcotest.(check (list string))
    "first-appearance order" [ "z"; "a" ]
    (List.map fst (Lifetime.of_trace t))

let test_of_trace_empty () =
  check_bool "empty trace empty summaries" true (Lifetime.of_trace Trace.empty = [])

(* --- overlap / live_at --- *)

let s ?positions ~accesses ~first ~last () =
  Lifetime.summary ?positions ~accesses ~first ~last ()

let test_overlap () =
  let a = s ~accesses:5. ~first:0 ~last:10 () in
  let b = s ~accesses:5. ~first:5 ~last:20 () in
  let c = s ~accesses:5. ~first:11 ~last:12 () in
  check_bool "overlapping" true (Lifetime.overlap a b = Some (5, 10));
  check_bool "disjoint" true (Lifetime.overlap a c = None);
  check_bool "touching endpoint" true (Lifetime.overlap b c = Some (11, 12));
  check_bool "live inside" true (Lifetime.live_at a 10);
  check_bool "dead outside" false (Lifetime.live_at a 11)

(* --- accesses_within --- *)

let test_accesses_within_exact () =
  let a = s ~positions:[| 0; 2; 4; 6; 8 |] ~accesses:5. ~first:0 ~last:8 () in
  check_bool "all" true (Lifetime.accesses_within a ~lo:0 ~hi:8 = 5.);
  check_bool "window" true (Lifetime.accesses_within a ~lo:2 ~hi:5 = 2.);
  check_bool "inclusive ends" true (Lifetime.accesses_within a ~lo:4 ~hi:4 = 1.);
  check_bool "empty window" true (Lifetime.accesses_within a ~lo:5 ~hi:3 = 0.)

let test_accesses_within_uniform () =
  (* no positions: uniform approximation over the lifetime *)
  let a = s ~accesses:10. ~first:0 ~last:9 () in
  check_bool "half window half accesses" true
    (abs_float (Lifetime.accesses_within a ~lo:0 ~hi:4 -. 5.) < 1e-9);
  check_bool "clipped window" true
    (abs_float (Lifetime.accesses_within a ~lo:5 ~hi:100 -. 5.) < 1e-9)

(* --- weight --- *)

let test_weight_disjoint_zero () =
  let a = s ~accesses:100. ~first:0 ~last:10 () in
  let b = s ~accesses:100. ~first:11 ~last:20 () in
  check_int "disjoint weight" 0 (Lifetime.weight a b)

let test_weight_min_rule () =
  (* a has 2 accesses in the overlap, b has 30: w = 2 *)
  let a = s ~positions:[| 0; 5; 50; 55 |] ~accesses:4. ~first:0 ~last:55 () in
  let b =
    s
      ~positions:(Array.init 30 (fun i -> 10 + i))
      ~accesses:30. ~first:10 ~last:39 ()
  in
  (* overlap = [10,39]; a has positions {} in [10,39]... none! w=0 *)
  check_int "no access in overlap" 0 (Lifetime.weight a b);
  let a' = s ~positions:[| 0; 12; 20; 55 |] ~accesses:4. ~first:0 ~last:55 () in
  check_int "min of overlap counts" 2 (Lifetime.weight a' b)

let test_weight_symmetry () =
  let a = s ~accesses:17. ~first:0 ~last:30 () in
  let b = s ~accesses:40. ~first:10 ~last:50 () in
  check_int "symmetric" (Lifetime.weight a b) (Lifetime.weight b a)

let test_weight_from_real_trace () =
  (* interleaved a/b: both live together; weight = min(count, count) *)
  let t =
    mk
      (List.concat_map
         (fun i -> [ ("a", i * 8); ("b", 1000 + (i * 8)) ])
         [ 0; 1; 2; 3; 4 ])
  in
  let a = summary_of t "a" and b = summary_of t "b" in
  (* a's positions 0,2,4,6,8; b's 1,3,5,7,9; overlap [1,8]: a has 4, b 4 *)
  check_int "interleaved weight" 4 (Lifetime.weight a b)

(* --- properties --- *)

let gen_summary =
  QCheck.Gen.(
    let* first = int_bound 100 in
    let* len = int_bound 100 in
    let* n = int_bound 20 in
    let last = first + len in
    if n = 0 then return (s ~accesses:0. ~first ~last ())
    else
      let* positions =
        list_size (return n) (int_range first last)
      in
      let positions = Array.of_list (List.sort compare positions) in
      (* force endpoints to match first/last *)
      positions.(0) <- first;
      positions.(Array.length positions - 1) <- last;
      let positions = Array.of_list (List.sort compare (Array.to_list positions)) in
      return
        (s ~positions ~accesses:(float_of_int (Array.length positions)) ~first
           ~last ()))

let arb_summary =
  QCheck.make
    ~print:(fun x -> Format.asprintf "%a" Lifetime.pp_summary x)
    gen_summary

let prop_weight_symmetric =
  QCheck.Test.make ~name:"weight is symmetric" ~count:300
    (QCheck.pair arb_summary arb_summary) (fun (a, b) ->
      Lifetime.weight a b = Lifetime.weight b a)

let prop_weight_nonneg_bounded =
  QCheck.Test.make ~name:"0 <= weight <= min(total accesses)" ~count:300
    (QCheck.pair arb_summary arb_summary) (fun (a, b) ->
      let w = Lifetime.weight a b in
      w >= 0
      && float_of_int w
         <= Float.min a.Lifetime.accesses b.Lifetime.accesses +. 0.5)

let prop_disjoint_zero =
  QCheck.Test.make ~name:"disjoint lifetimes weigh zero" ~count:300
    (QCheck.pair arb_summary arb_summary) (fun (a, b) ->
      match Lifetime.overlap a b with
      | None -> Lifetime.weight a b = 0
      | Some _ -> true)

let prop_of_trace_accesses_sum =
  QCheck.Test.make ~name:"per-var access counts sum to tagged accesses" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_bound 60)
       (QCheck.pair (QCheck.oneofl [ "a"; "b"; "c" ]) (QCheck.int_bound 1000)))
    (fun specs ->
      let t = mk specs in
      let total =
        List.fold_left
          (fun acc (_, s) -> acc +. s.Lifetime.accesses)
          0. (Lifetime.of_trace t)
      in
      total = float_of_int (List.length specs))

(* --- profiling from packed columns against the boxed reference --- *)

(* The reference: the boxed, per-access classifier the profiler used
   before it read packed columns, kept as it was. *)
let reference_classified trace ~classify =
  let open Lifetime in
  let tbl : (string, int list ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  Memtrace.Trace.iteri
    (fun i a ->
      match classify a with
      | None -> ()
      | Some v -> (
          match Hashtbl.find_opt tbl v with
          | Some (positions, count) ->
              positions := i :: !positions;
              incr count
          | None ->
              Hashtbl.add tbl v (ref [ i ], ref 1);
              order := v :: !order))
    trace;
  List.rev_map
    (fun v ->
      match Hashtbl.find_opt tbl v with
      | None -> assert false
      | Some (positions, count) ->
          let ps = Array.of_list (List.rev !positions) in
          let n = Array.length ps in
          ( v,
            {
              accesses = float_of_int !count;
              first = ps.(0);
              last = ps.(n - 1);
              positions = Some ps;
            } ))
    !order

(* A rule's meaning as a per-access classifier. *)
let classify_by rule (a : Access.t) =
  match a.Access.var with
  | None -> None
  | Some v -> (
      match rule v with
      | Lifetime.Skip -> None
      | Lifetime.Whole -> Some v
      | Lifetime.Split { base; chunk } ->
          Some (Printf.sprintf "%s#%d" v ((a.Access.addr - base) / chunk)))

(* Several traces over a few variables, some accesses untagged, and a
   rule per variable. *)
let gen_profile_case =
  let open QCheck.Gen in
  let access =
    map3
      (fun var addr kind -> Access.make ~kind ?var addr)
      (oneofl [ None; Some "a"; Some "b"; Some "c"; Some "d" ])
      (int_bound 511)
      (oneofl [ Access.Read; Access.Write ])
  in
  let rule =
    oneof
      [
        return Lifetime.Skip;
        return Lifetime.Whole;
        map2
          (fun base chunk -> Lifetime.Split { base; chunk })
          (int_bound 256) (oneofl [ 16; 64; 100; 512 ]);
      ]
  in
  pair
    (list_size (int_range 0 4) (list_size (int_bound 40) access))
    (list_repeat 4 rule)

let print_profile_case (traces, _) =
  String.concat " | "
    (List.map
       (fun t -> String.concat " " (List.map Access.to_string t))
       traces)

let prop_packed_matches_reference =
  QCheck.Test.make ~name:"of_packed_classified = boxed reference" ~count:500
    (QCheck.make ~print:print_profile_case gen_profile_case)
    (fun (traces, rules) ->
      let rule v =
        List.assoc v (List.combine [ "a"; "b"; "c"; "d" ] rules)
      in
      let packed = List.map (fun t -> Memtrace.Packed.of_list t) traces in
      let whole = Trace.of_list (List.concat traces) in
      Lifetime.of_packed_classified packed ~rule
      = reference_classified whole ~classify:(classify_by rule)
      && Lifetime.of_packed packed
         = reference_classified whole ~classify:(fun a -> a.Access.var))

let test_of_packed_offsets () =
  (* "a" spans both traces: positions continue across the boundary *)
  let t1 = Memtrace.Packed.of_list [ Access.make ~var:"a" 0; Access.make 4 ] in
  let t2 =
    Memtrace.Packed.of_list
      [ Access.make ~var:"b" 8; Access.make ~var:"a" 0; Access.make ~var:"a" 4 ]
  in
  match Lifetime.of_packed [ t1; t2 ] with
  | [ ("a", a); ("b", b) ] ->
      check_bool "a positions" true (a.Lifetime.positions = Some [| 0; 3; 4 |]);
      check_int "a first" 0 a.Lifetime.first;
      check_int "a last" 4 a.Lifetime.last;
      check_bool "b positions" true (b.Lifetime.positions = Some [| 2 |])
  | _ -> Alcotest.fail "expected a then b"

let test_of_packed_split () =
  (* "big" splits into 16-byte chunks from base 32; "small" stays whole;
     "other" is skipped *)
  let t =
    Memtrace.Packed.of_list
      [
        Access.make ~var:"big" 50;
        Access.make ~var:"other" 0;
        Access.make ~var:"small" 8;
        Access.make ~var:"big" 33;
        Access.make ~var:"big" 80;
        Access.make ~var:"big" 51;
      ]
  in
  let rule = function
    | "big" -> Lifetime.Split { base = 32; chunk = 16 }
    | "small" -> Lifetime.Whole
    | _ -> Lifetime.Skip
  in
  check_bool "names in first-appearance order" true
    (List.map fst (Lifetime.of_packed_classified [ t ] ~rule)
    = [ "big#1"; "small"; "big#0"; "big#3" ]);
  check_bool "big#1 twice" true
    ((List.assoc "big#1" (Lifetime.of_packed_classified [ t ] ~rule))
       .Lifetime.positions = Some [| 0; 5 |])

let test_of_packed_empty () =
  check_bool "no traces" true (Lifetime.of_packed [] = []);
  check_bool "empty trace" true
    (Lifetime.of_packed [ Memtrace.Packed.of_list [] ] = []);
  check_bool "untagged only" true
    (Lifetime.of_packed
       [ Memtrace.Packed.of_list [ Access.make 0; Access.make 16 ] ]
    = [])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_weight_symmetric;
      prop_weight_nonneg_bounded;
      prop_disjoint_zero;
      prop_of_trace_accesses_sum;
    ]

let suites =
  [
    ( "profile.lifetime",
      [
        Alcotest.test_case "summary validation" `Quick test_summary_validation;
        Alcotest.test_case "of_trace basic" `Quick test_of_trace_basic;
        Alcotest.test_case "of_trace order/untagged" `Quick test_of_trace_order_and_untagged;
        Alcotest.test_case "of_trace empty" `Quick test_of_trace_empty;
        Alcotest.test_case "overlap/live_at" `Quick test_overlap;
        Alcotest.test_case "accesses_within exact" `Quick test_accesses_within_exact;
        Alcotest.test_case "accesses_within uniform" `Quick test_accesses_within_uniform;
        Alcotest.test_case "weight disjoint" `Quick test_weight_disjoint_zero;
        Alcotest.test_case "weight min rule" `Quick test_weight_min_rule;
        Alcotest.test_case "weight symmetry" `Quick test_weight_symmetry;
        Alcotest.test_case "weight from trace" `Quick test_weight_from_real_trace;
      ] );
    ("profile.properties", qcheck_cases);
    ( "profile.packed",
      [
        QCheck_alcotest.to_alcotest prop_packed_matches_reference;
        Alcotest.test_case "offsets across traces" `Quick test_of_packed_offsets;
        Alcotest.test_case "split regions" `Quick test_of_packed_split;
        Alcotest.test_case "empty and untagged" `Quick test_of_packed_empty;
      ] );
  ]
