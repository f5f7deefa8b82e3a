(* Tests for the named-graph dataset layer: graph isolation, the shared
   dictionary, cross-graph (quad-level) lookup, and the RDF merge. *)

open Hexa
open Rdf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ex n = Term.iri ("http://example.org/" ^ n)
let t s p o = Triple.make (ex s) (ex p) (ex o)
let g1 = ex "graph1"
let g2 = ex "graph2"

let sample () =
  let d = Dataset.create () in
  ignore (Dataset.add d (t "a" "p" "b"));
  ignore (Dataset.add d ~graph:g1 (t "a" "p" "c"));
  ignore (Dataset.add d ~graph:g1 (t "x" "q" "y"));
  ignore (Dataset.add d ~graph:g2 (t "a" "p" "b"));  (* same triple as default *)
  d

let test_isolation () =
  let d = sample () in
  check_int "default size" 1 (Hexastore.size (Dataset.default_graph d));
  check_int "g1 size" 2 (Hexastore.size (Option.get (Dataset.graph d g1)));
  check_int "g2 size" 1 (Hexastore.size (Option.get (Dataset.graph d g2)));
  check_int "total counts duplicates" 4 (Dataset.size d);
  check_bool "unknown graph" true (Dataset.graph d (ex "nope") = None);
  Alcotest.(check (list string)) "graph names" [ "<http://example.org/graph1>"; "<http://example.org/graph2>" ]
    (List.map Term.to_string (Dataset.graph_names d))

let test_shared_dictionary () =
  let d = sample () in
  (* "a" got one id, visible identically from every graph. *)
  let id = Option.get (Dict.Term_dict.find_term (Dataset.dict d) (ex "a")) in
  let in_graph ?graph () =
    Check.Model.pushed (Dataset.lookup d ?graph (Pattern.make ~s:id ()))
  in
  check_int "a in default" 1 (List.length (in_graph ()));
  check_int "a in g1" 1 (List.length (in_graph ~graph:g1 ()));
  check_int "a in g2" 1 (List.length (in_graph ~graph:g2 ()));
  check_int "a in unknown graph" 0 (List.length (in_graph ~graph:(ex "nope") ()))

let test_lookup_all_tags_graphs () =
  let d = sample () in
  let id = Option.get (Dict.Term_dict.find_term (Dataset.dict d) (ex "a")) in
  let hits = ref [] in
  Dataset.lookup_all d (Pattern.make ~s:id ()) (fun g s p o -> hits := (g, (s, p, o)) :: !hits);
  let hits = List.rev !hits in
  check_int "three graphs match" 3 (List.length hits);
  let tags = List.sort compare (List.map (fun (g, _) -> Option.map Term.to_string g) hits) in
  Alcotest.(check (list (option string))) "tags"
    [ None; Some "<http://example.org/graph1>"; Some "<http://example.org/graph2>" ]
    tags

let test_union_store () =
  let d = sample () in
  let merged = Dataset.union_store d in
  (* 4 statements, but a-p-b occurs twice → 3 distinct triples. *)
  check_int "merge deduplicates" 3 (Hexastore.size merged);
  Hexastore.check_invariant merged;
  check_bool "merge shares dict" true (Dataset.dict d == Hexastore.dict merged)

let test_remove_and_drop () =
  let d = sample () in
  check_bool "remove from g1" true (Dataset.remove d ~graph:g1 (t "a" "p" "c"));
  check_bool "remove absent" false (Dataset.remove d ~graph:g1 (t "a" "p" "c"));
  (* Removing from an unknown graph must not create it. *)
  check_bool "remove from unknown" false (Dataset.remove d ~graph:(ex "ghost") (t "a" "p" "b"));
  check_bool "ghost not created" true (Dataset.graph d (ex "ghost") = None);
  check_bool "drop g2" true (Dataset.drop_graph d g2);
  check_bool "drop again" false (Dataset.drop_graph d g2);
  check_int "sizes after" 2 (Dataset.size d)

let test_graph_name_validation () =
  let d = Dataset.create () in
  (try
     ignore (Dataset.get_or_create_graph d (Term.string_literal "bad"));
     Alcotest.fail "literal graph name accepted"
   with Invalid_argument _ -> ());
  (* Blank node graph names are allowed. *)
  ignore (Dataset.get_or_create_graph d (Term.blank "b0"));
  check_int "blank graph exists" 1 (List.length (Dataset.graph_names d));
  check_bool "memory accounted" true (Dataset.memory_words d > 0)

(* --- named-graph mutation under the delta layer ----------------------- *)

module C = Check

let no_violations what vs =
  if vs <> [] then
    Alcotest.failf "%s: %d violation(s): %s" what (List.length vs)
      (String.concat "; " (List.map C.Violation.to_string vs))

(* A named graph fronted by a write-optimized delta: buffered updates
   stay invisible to the dataset until [flush], and a rebuild-style
   [compact] must not detach the dataset's alias to the graph. *)
let test_delta_fronted_graph () =
  let d = sample () in
  let g = Dataset.get_or_create_graph d g1 in
  let dl = Delta.of_base ~insert_threshold:1000 ~delete_threshold:1000 g in
  check_bool "buffer insert 1" true (Delta.add dl (t "n1" "q" "z"));
  check_bool "buffer insert 2" true (Delta.add dl (t "n2" "q" "z"));
  check_bool "tombstone base triple" true (Delta.remove dl (t "x" "q" "y"));
  (* Mid-delta: the dataset still serves the unflushed base and stays
     coherent; the merged view already reflects the buffered updates. *)
  check_int "dataset unchanged mid-delta" 4 (Dataset.size d);
  check_int "g1 base unchanged mid-delta" 2 (Hexastore.size g);
  check_int "merged view size" 3 (Delta.size dl);
  check_bool "merged sees buffered" true (Delta.mem dl (t "n1" "q" "z"));
  check_bool "merged hides tombstoned" false (Delta.mem dl (t "x" "q" "y"));
  no_violations "dataset coherent mid-delta" (C.Invariant.dataset d);
  no_violations "delta coherent mid-delta" (C.delta dl);
  (* Flush: the staged updates land in the dataset's graph. *)
  Delta.flush dl;
  check_int "g1 sees flushed updates" 3 (Hexastore.size g);
  check_int "dataset sees flushed updates" 5 (Dataset.size d);
  check_bool "dataset lookup finds flushed triple" true
    (let id = Option.get (Dict.Term_dict.find_term (Dataset.dict d) (ex "n1")) in
     Check.Model.pushed (Dataset.lookup d ~graph:g1 (Pattern.make ~s:id ())) <> []);
  no_violations "dataset coherent after flush" (C.Invariant.dataset d);
  (* Compact forces the rebuild path; the graph's identity must survive
     so the dataset observes the rebuilt contents through its alias. *)
  check_bool "buffer insert 3" true (Delta.add dl (t "n3" "q" "z"));
  Delta.compact dl;
  check_bool "alias survives rebuild" true (Delta.base dl == g);
  check_bool "alias still registered" true
    (Option.get (Dataset.graph d g1) == g);
  check_int "g1 sees compacted updates" 4 (Hexastore.size g);
  check_int "dataset sees compacted updates" 6 (Dataset.size d);
  no_violations "dataset coherent after compact" (C.Invariant.dataset d);
  no_violations "store coherent after compact" (C.store g)

(* Two graphs fronted by independent deltas, flushed at different times:
   the dataset must stay coherent in every mixed flushed/unflushed
   state. *)
let test_delta_mixed_flush_coherence () =
  let d = sample () in
  let dl1 = Delta.of_base ~insert_threshold:1000 (Dataset.get_or_create_graph d g1) in
  let dl2 = Delta.of_base ~insert_threshold:1000 (Dataset.get_or_create_graph d g2) in
  for i = 0 to 4 do
    ignore (Delta.add dl1 (t ("s" ^ string_of_int i) "p" "o"));
    ignore (Delta.add dl2 (t ("s" ^ string_of_int i) "p" "o2"))
  done;
  ignore (Delta.remove dl2 (t "a" "p" "b"));
  no_violations "both unflushed" (C.Invariant.dataset d);
  Delta.flush dl1;
  (* g1 flushed, g2 still buffering: the classic mixed state. *)
  check_int "g1 flushed" 7 (Hexastore.size (Option.get (Dataset.graph d g1)));
  check_int "g2 not yet" 1 (Hexastore.size (Option.get (Dataset.graph d g2)));
  no_violations "mixed flushed/unflushed" (C.Invariant.dataset d);
  no_violations "unflushed delta still coherent" (C.delta dl2);
  Delta.flush dl2;
  check_int "g2 flushed" 5 (Hexastore.size (Option.get (Dataset.graph d g2)));
  check_int "final dataset size" 13 (Dataset.size d);
  no_violations "both flushed" (C.Invariant.dataset d)

(* Property: random quad-level op sequences against a naive model.  Each
   op targets the default graph or one of two named graphs; named graphs
   are mutated through delta fronts that flush at random points, so the
   dataset passes through many mixed flushed/unflushed states. *)
let prop_dataset_quad_ops =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 2) (int_range 0 1) (triple (int_range 0 3) (int_range 0 1) (int_range 0 3))))
  in
  let print_ops ops =
    String.concat "; "
      (List.map
         (fun (g, k, (s, p, o)) -> Printf.sprintf "(g%d,%s,%d-%d-%d)" g
             (if k = 0 then "add" else "del") s p o)
         ops)
  in
  QCheck.Test.make ~name:"dataset quad ops = naive model (delta-fronted graphs)"
    ~count:200
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let d = Dataset.create () in
      let fronts =
        [| None;
           Some (Delta.of_base ~insert_threshold:4 ~delete_threshold:3
                   (Dataset.get_or_create_graph d g1));
           Some (Delta.of_base ~insert_threshold:4 ~delete_threshold:3
                   (Dataset.get_or_create_graph d g2)) |]
      in
      let model = Hashtbl.create 64 in  (* (graph_idx, triple) -> unit *)
      let step = ref 0 in
      List.iter
        (fun (gi, kind, (s, p, o)) ->
          incr step;
          let tr = t ("s" ^ string_of_int s) ("p" ^ string_of_int p) ("o" ^ string_of_int o) in
          let expect_change =
            if kind = 0 then not (Hashtbl.mem model (gi, tr))
            else Hashtbl.mem model (gi, tr)
          in
          let changed =
            match (kind, fronts.(gi)) with
            | 0, None -> Dataset.add d tr
            | 0, Some dl -> Delta.add dl tr
            | _, None -> Dataset.remove d tr
            | _, Some dl -> Delta.remove dl tr
          in
          if changed <> expect_change then
            QCheck.Test.fail_reportf "step %d: changed=%b expected=%b" !step
              changed expect_change;
          if kind = 0 then Hashtbl.replace model (gi, tr) ()
          else Hashtbl.remove model (gi, tr);
          (* Flush one of the fronts every few steps so the run visits
             mixed flushed/unflushed states. *)
          if !step mod 7 = 0 then Option.iter Delta.flush fronts.(1);
          if !step mod 11 = 0 then Option.iter Delta.compact fronts.(2);
          let violations = C.Invariant.dataset d in
          if violations <> [] then
            QCheck.Test.fail_reportf "step %d: dataset violations: %s" !step
              (String.concat "; " (List.map C.Violation.to_string violations)))
        ops;
      Array.iter (fun f -> Option.iter Delta.flush f) fronts;
      (* Final cross-check: dataset contents = model, graph by graph. *)
      let graph_of = function 0 -> None | 1 -> Some g1 | _ -> Some g2 in
      List.iter
        (fun gi ->
          let expected =
            Hashtbl.fold
              (fun (g, tr) () acc -> if g = gi then tr :: acc else acc)
              model []
            |> List.sort compare
          in
          let actual =
            Check.Model.pushed (Dataset.lookup d ?graph:(graph_of gi) (Pattern.make ()))
            |> List.map (Dict.Term_dict.decode_triple (Dataset.dict d))
            |> List.sort compare
          in
          if expected <> actual then
            QCheck.Test.fail_reportf "graph %d: %d expected vs %d actual" gi
              (List.length expected) (List.length actual))
        [ 0; 1; 2 ];
      let violations = C.Invariant.dataset d in
      if violations <> [] then
        QCheck.Test.fail_reportf "final dataset violations: %s"
          (String.concat "; " (List.map C.Violation.to_string violations));
      true)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dataset"
    [
      ( "dataset",
        [
          Alcotest.test_case "isolation" `Quick test_isolation;
          Alcotest.test_case "shared_dict" `Quick test_shared_dictionary;
          Alcotest.test_case "lookup_all" `Quick test_lookup_all_tags_graphs;
          Alcotest.test_case "union" `Quick test_union_store;
          Alcotest.test_case "remove_drop" `Quick test_remove_and_drop;
          Alcotest.test_case "names" `Quick test_graph_name_validation;
        ] );
      ( "delta",
        [
          Alcotest.test_case "delta_fronted_graph" `Quick test_delta_fronted_graph;
          Alcotest.test_case "mixed_flush_coherence" `Quick test_delta_mixed_flush_coherence;
          qt prop_dataset_quad_ops;
        ] );
    ]
