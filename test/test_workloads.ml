(* Tests for the [workloads] library: the deterministic PRNG, the two
   data-set generators, and — most importantly — answer equality of the
   twelve benchmark queries across Hexastore, COVP1 and COVP2. *)

open Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 1 and b = Prng.create 1 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create 2 in
  check_bool "different seed differs" true
    (List.init 10 (fun _ -> Prng.next (Prng.create 1)) <> List.init 10 (fun _ -> Prng.next c))

let test_prng_ranges () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    check_bool "int in range" true (x >= 0 && x < 10);
    let y = Prng.int_in g 5 7 in
    check_bool "int_in range" true (y >= 5 && y <= 7);
    let f = Prng.float g in
    check_bool "float range" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_weighted () =
  let g = Prng.create 4 in
  let n = 10000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.weighted g [ ("a", 0.9); ("b", 0.1) ] = "a" then incr hits
  done;
  check_bool "weighted ratio roughly 0.9" true
    (abs_float ((float_of_int !hits /. float_of_int n) -. 0.9) < 0.03)

let test_prng_zipf () =
  let g = Prng.create 5 in
  let n = 50 in
  let counts = Array.make n 0 in
  for _ = 1 to 20000 do
    let k = Prng.zipf g ~n ~s:1.1 in
    check_bool "zipf in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 0 dominates" true (counts.(0) > counts.(5));
  check_bool "heavy head" true (counts.(0) > counts.(n - 1) * 5)

(* ------------------------------------------------------------------ *)
(* LUBM generator                                                      *)
(* ------------------------------------------------------------------ *)

let small_lubm = Lubm.config ~universities:2 ~departments_per_university:2 ~seed:42 ()

let test_lubm_deterministic () =
  let a = Lubm.generate small_lubm and b = Lubm.generate small_lubm in
  check_int "same size" (List.length a) (List.length b);
  check_bool "identical" true (List.for_all2 Rdf.Triple.equal a b);
  let c = Lubm.generate { small_lubm with seed = 43 } in
  check_bool "different seed differs" true
    (not (List.length a = List.length c && List.for_all2 Rdf.Triple.equal a c))

let test_lubm_shape () =
  let triples = Lubm.generate small_lubm in
  check_bool "non-trivial size" true (List.length triples > 5000);
  (* Exactly the 18 predicates of the paper. *)
  let preds =
    List.sort_uniq compare
      (List.map (fun (t : Rdf.Triple.t) -> Rdf.Term.to_string t.p) triples)
  in
  check_int "18 predicates" 18 (List.length preds);
  check_int "predicates list agrees" 18 (List.length Lubm.predicates);
  List.iter
    (fun p -> check_bool ("declared predicate used: " ^ p) true (List.mem ("<" ^ p ^ ">") preds))
    Lubm.predicates

let test_lubm_anchors () =
  let triples = Lubm.generate small_lubm in
  let mentions iri =
    List.exists
      (fun (t : Rdf.Triple.t) ->
        Rdf.Term.equal t.s (Rdf.Term.iri iri) || Rdf.Term.equal t.o (Rdf.Term.iri iri))
      triples
  in
  check_bool "Course10 exists" true (mentions Lubm.course10);
  check_bool "University0 exists" true (mentions (Lubm.university 0));
  check_bool "AssociateProfessor10 exists" true (mentions Lubm.associate_professor10)

let test_lubm_seq_matches_list () =
  let a = Lubm.generate small_lubm in
  let b = List.of_seq (Lubm.generate_seq small_lubm) in
  check_bool "seq = list" true (List.for_all2 Rdf.Triple.equal a b)

(* ------------------------------------------------------------------ *)
(* Barton generator                                                    *)
(* ------------------------------------------------------------------ *)

let small_barton = Barton.config ~subjects:3000 ~seed:7 ()

let test_barton_deterministic () =
  let a = Barton.generate small_barton and b = Barton.generate small_barton in
  check_bool "identical" true (List.for_all2 Rdf.Triple.equal a b)

let test_barton_shape () =
  let triples = Barton.generate small_barton in
  let n = List.length triples in
  check_bool "≈5-6 triples per subject" true (n > 4 * 3000 && n < 8 * 3000);
  let preds =
    List.sort_uniq compare
      (List.map (fun (t : Rdf.Triple.t) -> Rdf.Term.to_string t.p) triples)
  in
  check_int "285 unique properties" Barton.total_properties (List.length preds);
  (* Type is the dominant property (every subject has one). *)
  let count p =
    List.length
      (List.filter (fun (t : Rdf.Triple.t) -> Rdf.Term.equal t.p (Rdf.Term.iri p)) triples)
  in
  check_int "every subject typed" 3000 (count Barton.type_p);
  check_bool "language frequent" true (count Barton.language_p > 1000);
  check_bool "records present" true (count Barton.records_p > 100);
  check_bool "point present" true (count Barton.point_p > 50)

let test_barton_banded_vocabulary () =
  (* Records of one type must use a strict subset of the 285 properties
     (the real catalog's per-type vocabulary trait that BQ2/BQ3 rely on). *)
  let triples = Barton.generate small_barton in
  let text = Rdf.Term.iri Barton.text_type in
  let type_p = Rdf.Term.iri Barton.type_p in
  let text_subjects =
    List.filter_map
      (fun (t : Rdf.Triple.t) ->
        if Rdf.Term.equal t.p type_p && Rdf.Term.equal t.o text then Some t.s else None)
      triples
  in
  let props =
    List.sort_uniq compare
      (List.filter_map
         (fun (t : Rdf.Triple.t) ->
           if List.exists (Rdf.Term.equal t.s) text_subjects then
             Some (Rdf.Term.to_string t.p)
           else None)
         triples)
  in
  check_bool "Text vocabulary is a strict subset" true
    (List.length props < Barton.total_properties / 2)

let test_barton_query_relevant_shape () =
  let triples = Barton.generate small_barton in
  let h = Hexa.Hexastore.of_triples triples in
  let d = Hexa.Hexastore.dict h in
  match Queries_barton.resolve_ids d with
  | None -> Alcotest.fail "vocabulary missing"
  | Some ids ->
      let count pat = Hexa.Hexastore.count h pat in
      check_bool "Text subjects exist" true
        (count (Hexa.Pattern.make ~p:ids.type_p ~o:ids.text ()) > 300);
      check_bool "French subjects exist" true
        (count (Hexa.Pattern.make ~p:ids.language ~o:ids.french ()) > 50);
      check_bool "DLC subjects exist" true
        (count (Hexa.Pattern.make ~p:ids.origin ~o:ids.dlc ()) > 100);
      check_bool "end points exist" true
        (count (Hexa.Pattern.make ~p:ids.point ~o:ids.end_point ()) > 20);
      check_int "28-property set resolves" 28 (List.length (Queries_barton.restriction_28 d))

(* ------------------------------------------------------------------ *)
(* Stores wrapper                                                      *)
(* ------------------------------------------------------------------ *)

let test_stores_wrapper () =
  let dict = Dict.Term_dict.create () in
  let tr = Dict.Term_dict.encode_triple dict
      (Rdf.Triple.make (Rdf.Term.iri "http://x/s") (Rdf.Term.iri "http://x/p") (Rdf.Term.iri "http://x/o"))
  in
  List.iter
    (fun kind ->
      let s = Stores.create ~dict kind in
      check_int (Stores.kind_name kind ^ " loads") 1 (Stores.load s [| tr |]);
      check_int (Stores.kind_name kind ^ " size") 1 (Stores.size s);
      check_bool "memory positive" true (Stores.memory_words s > 0);
      check_int "boxed size" 1 (Hexa.Store_sig.size (Stores.boxed s)))
    Stores.all_kinds;
  Alcotest.(check (list string)) "names" [ "Hexastore"; "COVP1"; "COVP2" ]
    (List.map Stores.kind_name Stores.all_kinds)

(* ------------------------------------------------------------------ *)
(* Query equivalence across the three stores                           *)
(* ------------------------------------------------------------------ *)

let build_all triples =
  let dict = Dict.Term_dict.create () in
  let encoded = Array.of_list (List.map (Dict.Term_dict.encode_triple dict) triples) in
  let stores =
    List.map
      (fun kind ->
        let s = Stores.create ~dict kind in
        ignore (Stores.load s encoded);
        s)
      Stores.all_kinds
  in
  (dict, stores)

let barton_fixture = lazy (build_all (Barton.generate (Barton.config ~subjects:1500 ~seed:11 ())))
let lubm_fixture =
  lazy (build_all (Lubm.generate (Lubm.config ~universities:1 ~departments_per_university:1 ~seed:5 ())))

let assert_all_equal name run =
  let _, stores = Lazy.force barton_fixture in
  match stores with
  | (reference :: others : Stores.t list) ->
      let expected = run reference in
      List.iter
        (fun store ->
          check_bool
            (Printf.sprintf "%s: %s = Hexastore" name (Stores.name store))
            true
            (run store = expected))
        others;
      expected
  | [] -> Alcotest.fail "no stores"

let barton_ids () =
  let dict, _ = Lazy.force barton_fixture in
  match Queries_barton.resolve_ids dict with
  | Some ids -> ids
  | None -> Alcotest.fail "barton ids"

let test_bq1_equal () =
  let ids = barton_ids () in
  let r = assert_all_equal "BQ1" (fun s -> Queries_barton.bq1 s ids) in
  check_bool "BQ1 non-empty" true (r <> []);
  (* counts sum to the number of type triples *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r in
  check_int "BQ1 total = typed subjects" 1500 total

let test_bq2_equal () =
  let ids = barton_ids () in
  let r = assert_all_equal "BQ2" (fun s -> Queries_barton.bq2 s ids) in
  check_bool "BQ2 non-empty" true (r <> []);
  (* Type itself must appear with frequency = |Text subjects| or more. *)
  check_bool "BQ2 includes Type" true (List.mem_assoc ids.type_p r)

let test_bq2_restricted () =
  let dict, _ = Lazy.force barton_fixture in
  let ids = barton_ids () in
  let restrict = Queries_barton.restriction_28 dict in
  let r = assert_all_equal "BQ2_28" (fun s -> Queries_barton.bq2 ~restrict s ids) in
  check_bool "restricted ⊆ restriction" true
    (List.for_all (fun (p, _) -> List.mem p restrict) r);
  let full = assert_all_equal "BQ2full" (fun s -> Queries_barton.bq2 s ids) in
  check_bool "restriction shrinks result" true (List.length r <= List.length full)

let test_bq3_equal () =
  let ids = barton_ids () in
  let r = assert_all_equal "BQ3" (fun s -> Queries_barton.bq3 s ids) in
  (* every reported (o, c) has c > 1 *)
  check_bool "popular objects only" true
    (List.for_all (fun (_, objs) -> List.for_all (fun (_, c) -> c > 1) objs) r)

let test_bq4_equal () =
  let ids = barton_ids () in
  let r3 = assert_all_equal "BQ3" (fun s -> Queries_barton.bq3 s ids) in
  let r4 = assert_all_equal "BQ4" (fun s -> Queries_barton.bq4 s ids) in
  (* BQ4's subject set is a subset of BQ3's, so its frequencies are no
     larger overall. *)
  let total l = List.fold_left (fun acc (_, objs) -> acc + List.length objs) 0 l in
  check_bool "BQ4 no larger than BQ3" true (total r4 <= total r3)

let test_bq5_equal () =
  let ids = barton_ids () in
  let r = assert_all_equal "BQ5" (fun s -> Queries_barton.bq5 s ids) in
  check_bool "BQ5 inferred types are never Text" true
    (List.for_all (fun (_, ty) -> ty <> ids.text) r)

let test_bq6_equal () =
  let ids = barton_ids () in
  let r6 = assert_all_equal "BQ6" (fun s -> Queries_barton.bq6 s ids) in
  let r2 = assert_all_equal "BQ2" (fun s -> Queries_barton.bq2 s ids) in
  (* BQ6 aggregates over a superset of BQ2's subjects. *)
  let freq l p = Option.value ~default:0 (List.assoc_opt p l) in
  check_bool "BQ6 ≥ BQ2 per property" true
    (List.for_all (fun (p, n) -> freq r6 p >= n) r2)

let test_bq7_equal () =
  let ids = barton_ids () in
  let r = assert_all_equal "BQ7" (fun s -> Queries_barton.bq7 s ids) in
  check_bool "BQ7 non-empty" true (r <> []);
  (* Point "end" implies type Date in the generator. *)
  let dict, _ = Lazy.force barton_fixture in
  let date_id = Dict.Term_dict.find_term dict (Rdf.Term.iri Barton.date_type) in
  check_bool "all end-points are Dates" true
    (match date_id with
    | None -> false
    | Some date -> List.for_all (fun (_, _, tys) -> List.mem date tys) r);
  check_bool "encodings present" true (List.for_all (fun (_, enc, _) -> enc <> []) r)

let test_bq_restricted_equal_all () =
  (* The _28 variants must also agree across all three stores, for every
     query that has one. *)
  let dict, _ = Lazy.force barton_fixture in
  let ids = barton_ids () in
  let restrict = Queries_barton.restriction_28 dict in
  ignore (assert_all_equal "BQ3_28" (fun s -> Queries_barton.bq3 ~restrict s ids));
  ignore (assert_all_equal "BQ4_28" (fun s -> Queries_barton.bq4 ~restrict s ids));
  ignore (assert_all_equal "BQ6_28" (fun s -> Queries_barton.bq6 ~restrict s ids));
  (* And restriction can only shrink the reported property sets. *)
  let props l = List.map fst l in
  let subset a b = List.for_all (fun p -> List.mem p b) a in
  let with_r = assert_all_equal "BQ3r" (fun s -> Queries_barton.bq3 ~restrict s ids) in
  let without = assert_all_equal "BQ3f" (fun s -> Queries_barton.bq3 s ids) in
  check_bool "restricted properties ⊆ unrestricted" true (subset (props with_r) (props without))

let test_bq_results_deterministic () =
  (* Re-running a query gives identical results (no hidden mutation of
     the shared index structures by query evaluation). *)
  let ids = barton_ids () in
  let _, stores = Lazy.force barton_fixture in
  List.iter
    (fun store ->
      let a = Queries_barton.bq2 store ids in
      let b = Queries_barton.bq2 store ids in
      check_bool (Stores.name store ^ " bq2 repeatable") true (a = b);
      let a = Queries_barton.bq5 store ids in
      let b = Queries_barton.bq5 store ids in
      check_bool (Stores.name store ^ " bq5 repeatable") true (a = b))
    stores

let test_bq1_sums_match_store () =
  (* The BQ1 histogram must account for exactly the Type triples. *)
  let ids = barton_ids () in
  let _, stores = Lazy.force barton_fixture in
  List.iter
    (fun store ->
      let counts = Queries_barton.bq1 store ids in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
      let expected = Hexa.Store_sig.count (Stores.boxed store) (Hexa.Pattern.make ~p:ids.type_p ()) in
      check_int (Stores.name store ^ " bq1 total") expected total)
    stores

let lubm_ids () =
  let dict, _ = Lazy.force lubm_fixture in
  match Queries_lubm.resolve_ids dict with
  | Some ids -> ids
  | None -> Alcotest.fail "lubm ids"

let assert_lubm_equal name run =
  let _, stores = Lazy.force lubm_fixture in
  match stores with
  | reference :: others ->
      let expected = run reference in
      List.iter
        (fun store ->
          check_bool
            (Printf.sprintf "%s: %s = Hexastore" name (Stores.name store))
            true
            (run store = expected))
        others;
      expected
  | [] -> Alcotest.fail "no stores"

let test_lq1_equal () =
  let ids = lubm_ids () in
  let r = assert_lubm_equal "LQ1" (fun s -> Queries_lubm.lq1 s ids) in
  check_bool "LQ1 non-empty (teacher + students)" true (List.length r >= 2)

let test_lq2_equal () =
  let ids = lubm_ids () in
  let r = assert_lubm_equal "LQ2" (fun s -> Queries_lubm.lq2 s ids) in
  check_bool "LQ2 non-empty" true (r <> [])

let test_lq3_equal () =
  let ids = lubm_ids () in
  let out, inc = assert_lubm_equal "LQ3" (fun s -> Queries_lubm.lq3 s ids) in
  check_bool "LQ3 outgoing non-empty" true (out <> []);
  check_bool "LQ3 incoming non-empty (advisees or TA)" true (inc <> [] || out <> []);
  (* outgoing includes the type statement *)
  check_bool "typed" true (List.exists (fun (p, _) -> p = ids.type_p) out)

let test_lq4_equal () =
  let ids = lubm_ids () in
  let r = assert_lubm_equal "LQ4" (fun s -> Queries_lubm.lq4 s ids) in
  check_int "AP10 teaches 2 courses" 2 (List.length r);
  check_bool "every course has people" true (List.for_all (fun (_, ppl) -> ppl <> []) r)

let test_lq5_equal () =
  let ids = lubm_ids () in
  let r = assert_lubm_equal "LQ5" (fun s -> Queries_lubm.lq5 s ids) in
  (* AP10 has three degree universities (single-university config may
     collapse them); each reported university lists degree holders
     including AP10 where applicable. *)
  check_bool "LQ5 non-empty" true (r <> []);
  check_bool "every university has degree holders" true
    (List.for_all (fun (_, ppl) -> ppl <> []) r)

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let test_harness_time () =
  let seconds, result = Harness.time ~warmup:0 ~repeats:3 (fun () -> 21 * 2) in
  check_int "result" 42 result;
  check_bool "non-negative" true (seconds >= 0.)

let test_harness_prefixes () =
  let triples = Lubm.generate small_lubm in
  let sized =
    Harness.build_prefixes ~kinds:Stores.all_kinds ~sizes:[ 100; 1000; 100; 10_000_000 ]
      (List.to_seq triples)
  in
  (* duplicates collapse, oversize clamps *)
  check_int "three points" 3 (List.length sized);
  List.iter
    (fun { Harness.n_triples; stores; _ } ->
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "%s at %d loaded" (Stores.name s) n_triples)
            true
            (Stores.size s <= n_triples))
        stores)
    sized;
  let last = List.nth sized 2 in
  check_int "clamped to data size" (List.length triples) last.Harness.n_triples

let test_harness_series_output () =
  let points =
    [ { Harness.size = 10; method_ = "Hexastore"; seconds = 0.001 };
      { Harness.size = 10; method_ = "COVP1"; seconds = 0.1 } ]
  in
  let s = Format.asprintf "%a" (Harness.pp_series ~figure:"fig3" ~title:"test") points in
  check_bool "has header" true (String.length s > 0 && String.sub s 0 8 = "# figure");
  check_bool "has rows" true
    (List.exists (fun l -> l = "10 Hexastore 1.000e-03") (String.split_on_char '\n' s))

let () =
  Alcotest.run "workloads"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Alcotest.test_case "zipf" `Quick test_prng_zipf;
        ] );
      ( "lubm",
        [
          Alcotest.test_case "deterministic" `Quick test_lubm_deterministic;
          Alcotest.test_case "shape" `Quick test_lubm_shape;
          Alcotest.test_case "anchors" `Quick test_lubm_anchors;
          Alcotest.test_case "seq" `Quick test_lubm_seq_matches_list;
        ] );
      ( "barton",
        [
          Alcotest.test_case "deterministic" `Quick test_barton_deterministic;
          Alcotest.test_case "shape" `Quick test_barton_shape;
          Alcotest.test_case "banded_vocabulary" `Quick test_barton_banded_vocabulary;
          Alcotest.test_case "query_shape" `Quick test_barton_query_relevant_shape;
        ] );
      ("stores", [ Alcotest.test_case "wrapper" `Quick test_stores_wrapper ]);
      ( "barton_queries",
        [
          Alcotest.test_case "bq1" `Quick test_bq1_equal;
          Alcotest.test_case "bq2" `Quick test_bq2_equal;
          Alcotest.test_case "bq2_28" `Quick test_bq2_restricted;
          Alcotest.test_case "bq3" `Quick test_bq3_equal;
          Alcotest.test_case "bq4" `Quick test_bq4_equal;
          Alcotest.test_case "bq5" `Quick test_bq5_equal;
          Alcotest.test_case "bq6" `Quick test_bq6_equal;
          Alcotest.test_case "bq7" `Quick test_bq7_equal;
          Alcotest.test_case "restricted_all" `Quick test_bq_restricted_equal_all;
          Alcotest.test_case "deterministic" `Quick test_bq_results_deterministic;
          Alcotest.test_case "bq1_sums" `Quick test_bq1_sums_match_store;
        ] );
      ( "lubm_queries",
        [
          Alcotest.test_case "lq1" `Quick test_lq1_equal;
          Alcotest.test_case "lq2" `Quick test_lq2_equal;
          Alcotest.test_case "lq3" `Quick test_lq3_equal;
          Alcotest.test_case "lq4" `Quick test_lq4_equal;
          Alcotest.test_case "lq5" `Quick test_lq5_equal;
        ] );
      ( "harness",
        [
          Alcotest.test_case "time" `Quick test_harness_time;
          Alcotest.test_case "prefixes" `Quick test_harness_prefixes;
          Alcotest.test_case "series" `Quick test_harness_series_output;
        ] );
    ]
