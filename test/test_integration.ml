(* End-to-end integration: generated data flows through parsing,
   snapshotting, all four store kinds, the SPARQL engine, inference and
   paths — with answers cross-checked between independent code paths. *)

open Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lubm_triples =
  lazy (Lubm.generate (Lubm.config ~universities:1 ~departments_per_university:2 ~seed:9 ()))

(* ------------------------------------------------------------------ *)
(* N-Triples file -> store -> snapshot -> store: one pipeline          *)
(* ------------------------------------------------------------------ *)

let test_pipeline_roundtrip () =
  let triples = Lazy.force lubm_triples in
  let nt_path = Filename.temp_file "hexa_integration" ".nt" in
  let snap_path = Filename.temp_file "hexa_integration" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove nt_path;
      Sys.remove snap_path)
    (fun () ->
      (* write N-Triples, parse back, load, snapshot, reload *)
      Rdf.Ntriples.save_file nt_path triples;
      let reparsed = Rdf.Ntriples.load_file nt_path in
      let h1 = Hexa.Hexastore.of_triples reparsed in
      Hexa.Snapshot.save h1 snap_path;
      let h2 = Hexa.Snapshot.load snap_path in
      check_int "sizes agree" (Hexa.Hexastore.size h1) (Hexa.Hexastore.size h2);
      Hexa.Hexastore.check_invariant h2;
      (* The same SPARQL query gives identical answers on both. *)
      let q =
        Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ())
          "SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t } GROUP BY ?t ORDER BY DESC(?n)"
      in
      let run h =
        Query.Exec.run (Hexa.Store_sig.box_hexastore h) q.algebra
        |> List.map (fun sol ->
               ( Query.Binding.value_to_string (Hexa.Hexastore.dict h)
                   (Option.get (Query.Binding.get sol "t")),
                 Query.Binding.get sol "n" ))
      in
      check_bool "query results identical through snapshot" true (run h1 = run h2))

(* ------------------------------------------------------------------ *)
(* SPARQL answers agree across all four store kinds                    *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    "SELECT ?x WHERE { ?x a ub:FullProfessor }";
    "SELECT ?x ?c WHERE { ?x ub:teacherOf ?c . ?x a ub:AssociateProfessor }";
    "SELECT ?s WHERE { ?s ub:advisor ?a . ?a ub:worksFor ?d . ?d ub:subOrganizationOf ?u }";
    "SELECT DISTINCT ?u WHERE { ?x ub:undergraduateDegreeFrom ?u }";
    "SELECT ?x WHERE { { ?x a ub:Lecturer } UNION { ?x a ub:FullProfessor } }";
    "SELECT ?x ?a WHERE { ?x a ub:GraduateStudent . OPTIONAL { ?x ub:advisor ?a } } LIMIT 50";
    "SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t } GROUP BY ?t ORDER BY ?t";
    "ASK { ?x ub:teacherOf ?c }";
  ]

let test_sparql_across_stores () =
  let triples = Lazy.force lubm_triples in
  let dict = Dict.Term_dict.create () in
  let encoded = Array.of_list (List.map (Dict.Term_dict.encode_triple dict) triples) in
  let stores =
    List.map
      (fun kind ->
        let s = Stores.create ~dict kind in
        ignore (Stores.load s encoded);
        Stores.boxed s)
      Stores.all_kinds
  in
  (* Plus a partial store holding only three orderings. *)
  let partial =
    Hexa.Partial.create ~dict
      ~orderings:[ Hexa.Ordering.Spo; Hexa.Ordering.Pos; Hexa.Ordering.Osp ] ()
  in
  ignore (Hexa.Partial.add_bulk_ids partial encoded);
  let stores = stores @ [ Hexa.Store_sig.box_partial partial ] in
  let ns = Rdf.Namespace.default () in
  List.iter
    (fun text ->
      let q = Query.Sparql.parse ~namespaces:ns text in
      let canon store =
        if q.is_ask then [ [ string_of_bool (Query.Exec.ask store q.algebra) ] ]
        else
          Query.Exec.run store q.algebra
          |> List.map (fun sol ->
                 List.map
                   (fun v ->
                     match Query.Binding.get sol v with
                     | None -> ""
                     | Some value -> Query.Binding.value_to_string dict value)
                   q.projection)
          |> List.sort compare
      in
      match stores with
      | reference :: others ->
          let expected = canon reference in
          List.iter
            (fun store ->
              check_bool
                (Printf.sprintf "%s agrees on %s" (Hexa.Store_sig.name store) text)
                true
                (canon store = expected))
            others
      | [] -> ())
    queries

(* ------------------------------------------------------------------ *)
(* Inference + engine: closure results become queryable                *)
(* ------------------------------------------------------------------ *)

let test_rdfs_closure_via_engine () =
  let ub = Rdf.Namespace.ub in
  let schema =
    [
      Rdf.Triple.make (Rdf.Term.iri (ub "FullProfessor"))
        (Rdf.Term.iri Rdf.Rdfs.subclass_of) (Rdf.Term.iri (ub "Professor"));
      Rdf.Triple.make (Rdf.Term.iri (ub "AssociateProfessor"))
        (Rdf.Term.iri Rdf.Rdfs.subclass_of) (Rdf.Term.iri (ub "Professor"));
      Rdf.Triple.make (Rdf.Term.iri (ub "Professor"))
        (Rdf.Term.iri Rdf.Rdfs.subclass_of) (Rdf.Term.iri (ub "Faculty"));
    ]
  in
  let triples = schema @ Lazy.force lubm_triples in
  let asserted = Hexa.Hexastore.of_triples triples in
  let closed = Hexa.Hexastore.of_triples (Rdf.Rdfs.closure triples) in
  let count h cls =
    Hexa.Hexastore.count_terms h ~p:(Rdf.Term.iri Rdf.Namespace.rdf_type)
      ~o:(Rdf.Term.iri (ub cls)) ()
  in
  check_int "no Faculty before closure" 0 (count asserted "Faculty");
  let full = count asserted "FullProfessor" and assoc = count asserted "AssociateProfessor" in
  check_bool "professors exist" true (full > 0 && assoc > 0);
  check_int "Professor = Full + Assoc" (full + assoc) (count closed "Professor");
  check_int "Faculty = Professor" (count closed "Professor") (count closed "Faculty")

(* ------------------------------------------------------------------ *)
(* Paths: a Ppath chain = the chain walked by nested index scans      *)
(* ------------------------------------------------------------------ *)

let test_ppath_chain_matches_nested_scans () =
  let triples = Lazy.force lubm_triples in
  let h = Hexa.Hexastore.of_triples triples in
  let d = Hexa.Hexastore.dict h in
  let pid name = Option.get (Dict.Term_dict.find_term d (Rdf.Term.iri (Lubm.ub name))) in
  let ppath =
    Query.Ppath.Seq
      (Query.Ppath.Pred (Lubm.ub "advisor"), Query.Ppath.Pred (Lubm.ub "worksFor"))
  in
  (* advisor/worksFor by hand: every advisor edge x -> y, then every
     worksFor edge out of y. *)
  let walked = ref [] in
  Hexa.Hexastore.iter h (Hexa.Pattern.make ~p:(pid "advisor") ()) (fun x _ y ->
      Hexa.Hexastore.iter h (Hexa.Pattern.make ~s:y ~p:(pid "worksFor") ()) (fun _ _ z ->
          walked := (x, z) :: !walked));
  let via_ppath = Query.Ppath.pairs h ppath in
  check_bool "chain is not empty" true (via_ppath <> []);
  check_bool "Ppath.pairs = nested scans" true (List.sort_uniq compare !walked = via_ppath)

(* ------------------------------------------------------------------ *)
(* Star vs queries_lubm on real generated data                         *)
(* ------------------------------------------------------------------ *)

let test_star_on_lubm () =
  let triples = Lazy.force lubm_triples in
  let h = Hexa.Hexastore.of_triples triples in
  let d = Hexa.Hexastore.dict h in
  let id iri = Option.get (Dict.Term_dict.find_term d (Rdf.Term.iri iri)) in
  (* Grad students advised by AP10: star over type + advisor. *)
  let star =
    Query.Star.subjects h
      [
        { Query.Star.p = id Rdf.Namespace.rdf_type; o = Some (id (Lubm.ub "GraduateStudent")) };
        { Query.Star.p = id (Lubm.ub "advisor"); o = Some (id Lubm.associate_professor10) };
      ]
  in
  (* Same through the generic engine. *)
  let q =
    Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ())
      (Printf.sprintf
         "SELECT ?x WHERE { ?x a ub:GraduateStudent . ?x ub:advisor <%s> }"
         Lubm.associate_professor10)
  in
  let via_engine =
    Query.Exec.run (Hexa.Store_sig.box_hexastore h) q.algebra
    |> List.filter_map (fun sol ->
           match Query.Binding.get sol "x" with
           | Some (Query.Binding.Id i) -> Some i
           | _ -> None)
    |> List.sort_uniq compare
  in
  check_bool "star = engine" true (Vectors.Sorted_ivec.to_list star = via_engine)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "nt_snapshot_roundtrip" `Quick test_pipeline_roundtrip;
          Alcotest.test_case "sparql_across_stores" `Quick test_sparql_across_stores;
          Alcotest.test_case "rdfs_closure" `Quick test_rdfs_closure_via_engine;
          Alcotest.test_case "ppath_chain_vs_nested_scans" `Quick test_ppath_chain_matches_nested_scans;
          Alcotest.test_case "star_on_lubm" `Quick test_star_on_lubm;
        ] );
    ]
