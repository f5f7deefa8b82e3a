(* Tests for the §6 future-work features: orderings as values, the
   partial Hexastore (any subset of the six indices, still answering all
   eight pattern shapes), and the workload-driven index advisor. *)

open Hexa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type id3 = Hexastore.id_triple = { s : int; p : int; o : int }

let t3 s p o = { s; p; o }

let sorted_triples seq =
  List.sort (fun (a : id3) b -> compare (a.s, a.p, a.o) (b.s, b.p, b.o)) (List.of_seq seq)

let all_patterns max_id =
  let opts = None :: List.init max_id (fun i -> Some i) in
  List.concat_map
    (fun s -> List.concat_map (fun p -> List.map (fun o -> { Pattern.s; p; o }) opts) opts)
    opts

(* ------------------------------------------------------------------ *)
(* Ordering                                                            *)
(* ------------------------------------------------------------------ *)

let test_ordering_names () =
  check_int "six orderings" 6 (List.length Ordering.all);
  List.iter
    (fun ord ->
      match Ordering.of_name (Ordering.name ord) with
      | Some ord' -> check_bool "name roundtrip" true (Ordering.equal ord ord')
      | None -> Alcotest.fail "of_name failed")
    Ordering.all;
  check_bool "unknown name" true (Ordering.of_name "xyz" = None)

let test_ordering_twins () =
  List.iter
    (fun ord ->
      check_bool "twin is involutive" true (Ordering.equal (Ordering.twin (Ordering.twin ord)) ord);
      check_bool "twin differs" false (Ordering.equal (Ordering.twin ord) ord))
    Ordering.all;
  check_bool "spo twin pso" true (Ordering.equal (Ordering.twin Ordering.Spo) Ordering.Pso);
  check_bool "sop twin osp" true (Ordering.equal (Ordering.twin Ordering.Sop) Ordering.Osp);
  check_bool "pos twin ops" true (Ordering.equal (Ordering.twin Ordering.Pos) Ordering.Ops)

let test_ordering_for_shape () =
  let open Pattern in
  let cases =
    [ (Sp, Ordering.Spo); (So, Ordering.Sop); (Po, Ordering.Pos);
      (S, Ordering.Spo); (P, Ordering.Pso); (O, Ordering.Osp) ]
  in
  List.iter
    (fun (shape, expected) ->
      check_bool "native ordering" true (Ordering.equal (Ordering.for_shape shape) expected))
    cases

(* ------------------------------------------------------------------ *)
(* Partial                                                             *)
(* ------------------------------------------------------------------ *)

let data = List.init 120 (fun i -> t3 (i mod 7) (i mod 4) (i mod 9))

let test_partial_requires_ordering () =
  Alcotest.check_raises "empty subset"
    (Invalid_argument "Partial.create: at least one ordering required") (fun () ->
      ignore (Partial.create ~orderings:[] ()))

let test_partial_basics () =
  let p = Partial.create ~orderings:[ Ordering.Spo ] () in
  check_bool "add" true (Partial.add_ids p (t3 1 2 3));
  check_bool "dup" false (Partial.add_ids p (t3 1 2 3));
  check_bool "mem" true (Partial.mem_ids p (t3 1 2 3));
  check_bool "not mem" false (Partial.mem_ids p (t3 1 2 4));
  check_int "size" 1 (Partial.size p);
  Partial.check_invariant p

let subsets =
  (* A representative mix: singletons of each family, pairs, the paper's
     workload-driven subset, and the full six. *)
  [
    [ Ordering.Spo ];
    [ Ordering.Pso ];
    [ Ordering.Sop ];
    [ Ordering.Pos ];
    [ Ordering.Osp ];
    [ Ordering.Ops ];
    [ Ordering.Spo; Ordering.Pos ];
    [ Ordering.Pso; Ordering.Osp ];
    [ Ordering.Spo; Ordering.Pso; Ordering.Pos; Ordering.Osp ];
    Ordering.all;
  ]

let test_partial_equals_full_on_all_patterns () =
  let h = Hexastore.create () in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) data;
  List.iter
    (fun orderings ->
      let p = Partial.create ~orderings () in
      List.iter (fun tr -> ignore (Partial.add_ids p tr)) data;
      Partial.check_invariant p;
      check_int "same size" (Hexastore.size h) (Partial.size p);
      List.iter
        (fun pat ->
          let label =
            Format.asprintf "{%s} lookup %a"
              (String.concat "," (List.map Ordering.name orderings))
              Pattern.pp pat
          in
          check_bool label true
            (sorted_triples (Partial.lookup p pat) = sorted_triples (Hexastore.lookup h pat));
          check_int (label ^ " count") (Hexastore.count h pat) (Partial.count p pat))
        (all_patterns 10))
    subsets

let test_partial_bulk () =
  List.iter
    (fun orderings ->
      let p1 = Partial.create ~orderings () in
      List.iter (fun tr -> ignore (Partial.add_ids p1 tr)) data;
      let p2 = Partial.create ~orderings () in
      let added = Partial.add_bulk_ids p2 (Array.of_list data) in
      check_int "bulk size" (Partial.size p1) (Partial.size p2);
      check_int "bulk new count" (Partial.size p1) added;
      Partial.check_invariant p2;
      check_bool "same content" true
        (sorted_triples (Partial.lookup p1 Pattern.wildcard)
        = sorted_triples (Partial.lookup p2 Pattern.wildcard));
      check_int "re-bulk adds none" 0 (Partial.add_bulk_ids p2 (Array.of_list data)))
    subsets

let test_partial_native () =
  let p = Partial.create ~orderings:[ Ordering.Pso ] () in
  check_bool "P native" true (Partial.is_native p Pattern.P);
  check_bool "O not native" false (Partial.is_native p Pattern.O);
  (* Sp is native through the twin's shared family. *)
  check_bool "Sp native via twin" true (Partial.is_native p Pattern.Sp);
  check_bool "All native via twin" true (Partial.is_native p Pattern.All)

let test_partial_memory_less_than_full () =
  let h = Hexastore.create () in
  let p = Partial.create ~orderings:[ Ordering.Spo; Ordering.Pos ] () in
  List.iter
    (fun tr ->
      ignore (Hexastore.add_ids h tr);
      ignore (Partial.add_ids p tr))
    data;
  check_bool "partial smaller" true (Partial.memory_words p < Hexastore.memory_words h)

let gen_triple = QCheck.Gen.(map3 t3 (int_bound 8) (int_bound 5) (int_bound 10))

let gen_subset =
  QCheck.Gen.(
    map
      (fun bits ->
        let chosen = List.filteri (fun i _ -> (bits lsr i) land 1 = 1) Ordering.all in
        if chosen = [] then [ Ordering.Spo ] else chosen)
      (int_range 1 63))

let prop_partial_model =
  QCheck.Test.make ~name:"partial store = full hexastore on all patterns, random subsets"
    ~count:120
    (QCheck.make
       QCheck.Gen.(pair gen_subset (list_size (int_bound 100) gen_triple)))
    (fun (orderings, triples) ->
      let h = Hexastore.create () in
      let p = Partial.create ~orderings () in
      List.iter
        (fun tr ->
          ignore (Hexastore.add_ids h tr);
          ignore (Partial.add_ids p tr))
        triples;
      Partial.check_invariant p;
      Partial.size p = Hexastore.size h
      && List.for_all
           (fun pat ->
             sorted_triples (Partial.lookup p pat) = sorted_triples (Hexastore.lookup h pat)
             && Partial.count p pat = Hexastore.count h pat)
           (all_patterns 11))

let test_partial_boxed_sparql () =
  (* The generic SPARQL engine runs over a partial store unchanged. *)
  let p = Partial.create ~orderings:[ Ordering.Pso; Ordering.Osp ] () in
  let d = Partial.dict p in
  let ex n = Rdf.Term.iri ("http://example.org/" ^ n) in
  List.iter
    (fun (s, pr, o) ->
      ignore (Partial.add_ids p (Dict.Term_dict.encode_triple d (Rdf.Triple.make (ex s) (ex pr) (ex o)))))
    [ ("a", "knows", "b"); ("b", "knows", "c"); ("a", "type", "Person") ];
  let boxed = Store_sig.box_partial p in
  Alcotest.(check string) "boxed name" "Partial" (Store_sig.name boxed);
  let q =
    Query.Sparql.parse
      "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?y . ?y ex:knows ?z }"
  in
  check_int "two-hop chain" 1 (List.length (Query.Exec.run boxed q.algebra))

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)
(* ------------------------------------------------------------------ *)

let test_advisor_workload_tally () =
  let patterns =
    [ Pattern.make ~p:1 (); Pattern.make ~p:2 (); Pattern.make ~o:3 (); Pattern.wildcard ]
  in
  let w = Advisor.workload_of_patterns patterns in
  check_int "three shapes" 3 (List.length w);
  check_bool "P counted twice" true (List.mem (Pattern.P, 2) w)

let test_advisor_recommend () =
  let w = [ (Pattern.P, 100); (Pattern.O, 10); (Pattern.Sp, 5) ] in
  let r = Advisor.recommend w in
  check_bool "keeps pso" true (List.mem Ordering.Pso r.keep);
  check_bool "keeps osp" true (List.mem Ordering.Osp r.keep);
  check_bool "keeps spo (Sp)" true (List.mem Ordering.Spo r.keep);
  check_bool "drops ops" true (List.mem Ordering.Ops r.drop);
  check_bool "drops sop" true (List.mem Ordering.Sop r.drop);
  check_bool "fully native" true (r.native_fraction = 1.0);
  check_int "keep+drop = 6" 6 (List.length r.keep + List.length r.drop)

let test_advisor_empty_workload () =
  let r = Advisor.recommend [] in
  Alcotest.(check (list string)) "spo only" [ "spo" ] (List.map Ordering.name r.keep);
  check_bool "vacuously native" true (r.native_fraction = 1.0)

let test_advisor_sp_via_twin () =
  (* A workload of only Sp lookups is natively served by pso alone
     (shared o-lists); the advisor reports it native once pso is kept. *)
  let r = Advisor.recommend [ (Pattern.P, 1); (Pattern.Sp, 1) ] in
  check_bool "native via twin" true (r.native_fraction = 1.0)

let test_advisor_memory_estimates () =
  let h = Hexastore.create () in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) data;
  let full = Advisor.estimate_memory_words h Ordering.all in
  let actual = Hexastore.memory_words h in
  check_bool "full estimate close to actual" true
    (abs (full - actual) * 10 < actual);
  let partial_est = Advisor.estimate_memory_words h [ Ordering.Spo; Ordering.Pso ] in
  check_bool "subset cheaper" true (partial_est < full);
  let s = Advisor.savings_fraction h [ Ordering.Spo ] in
  check_bool "savings in (0,1)" true (s > 0. && s < 1.);
  check_bool "keeping all saves ~nothing" true
    (abs_float (Advisor.savings_fraction h Ordering.all) < 0.1)

let prop_advisor_estimate_matches_partial =
  QCheck.Test.make ~name:"advisor memory estimate ≈ actual partial store memory" ~count:60
    (QCheck.make QCheck.Gen.(pair gen_subset (list_size (int_bound 120) gen_triple)))
    (fun (orderings, triples) ->
      let h = Hexastore.create () in
      let p = Partial.create ~orderings () in
      List.iter
        (fun tr ->
          ignore (Hexastore.add_ids h tr);
          ignore (Partial.add_ids p tr))
        triples;
      let est = Advisor.estimate_memory_words h orderings in
      let actual = Partial.memory_words p in
      (* Allocation slack differs; require agreement within 40%. *)
      actual = 0 || abs (est - actual) * 10 <= actual * 4)

(* Re-sorting an array already sorted in one ordering takes one or two
   stable passes, and must land exactly where a full sort does —
   duplicates included. *)
let prop_resort =
  QCheck.Test.make ~name:"resort from any ordering = sort_triples" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) gen_triple))
    (fun l ->
      let a = Array.of_list l in
      List.for_all
        (fun from ->
          let sorted = Ordering.sort_triples from a in
          List.for_all
            (fun ord -> Ordering.resort ~from ord sorted = Ordering.sort_triples ord a)
            Ordering.all)
        Ordering.all)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "partial"
    [
      ( "ordering",
        [
          Alcotest.test_case "names" `Quick test_ordering_names;
          Alcotest.test_case "twins" `Quick test_ordering_twins;
          Alcotest.test_case "for_shape" `Quick test_ordering_for_shape;
          qt prop_resort;
        ] );
      ( "partial",
        [
          Alcotest.test_case "requires_ordering" `Quick test_partial_requires_ordering;
          Alcotest.test_case "basics" `Quick test_partial_basics;
          Alcotest.test_case "equals_full" `Quick test_partial_equals_full_on_all_patterns;
          Alcotest.test_case "bulk" `Quick test_partial_bulk;
          Alcotest.test_case "native" `Quick test_partial_native;
          Alcotest.test_case "memory" `Quick test_partial_memory_less_than_full;
          Alcotest.test_case "boxed_sparql" `Quick test_partial_boxed_sparql;
          qt prop_partial_model;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "tally" `Quick test_advisor_workload_tally;
          Alcotest.test_case "recommend" `Quick test_advisor_recommend;
          Alcotest.test_case "empty" `Quick test_advisor_empty_workload;
          Alcotest.test_case "sp_via_twin" `Quick test_advisor_sp_via_twin;
          Alcotest.test_case "memory" `Quick test_advisor_memory_estimates;
          qt prop_advisor_estimate_matches_partial;
        ] );
    ]
