(* Tests for the [query] library: bindings, planner, executor, the SPARQL
   subset parser, path expressions and result formatting.  Executor
   results are cross-checked against a brute-force BGP evaluator and must
   be identical on Hexastore, COVP1 and COVP2. *)

open Query
open Rdf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A small academic graph in the spirit of the paper's Figure 1. *)
let ex name = Term.iri ("http://example.org/" ^ name)

let fig1_triples =
  let t s p o = Triple.make (ex s) (ex p) (ex o) in
  [
    t "ID1" "type" "FullProfessor";
    t "ID1" "teacherOf" "AI";
    t "ID1" "bachelorFrom" "MIT";
    t "ID1" "mastersFrom" "Cambridge";
    t "ID1" "phdFrom" "Yale";
    t "ID2" "type" "AssocProfessor";
    t "ID2" "worksFor" "MIT";
    t "ID2" "teacherOf" "DataBases";
    t "ID2" "bachelorFrom" "Yale";
    t "ID2" "phdFrom" "Stanford";
    t "ID3" "type" "GradStudent";
    t "ID3" "advisor" "ID2";
    t "ID3" "teachingAssist" "AI";
    t "ID3" "bachelorFrom" "Stanford";
    t "ID3" "mastersFrom" "Princeton";
    t "ID4" "type" "GradStudent";
    t "ID4" "advisor" "ID1";
    t "ID4" "takesCourse" "DataBases";
    t "ID4" "bachelorFrom" "Columbia";
  ]

let make_store () = Hexa.Hexastore.of_triples fig1_triples
let boxed () = Hexa.Store_sig.box_hexastore (make_store ())

(* A delta-fronted store whose *merged* view equals fig1: part of the
   graph bulk-loaded into the base, the rest left pending in the insert
   buffer, plus a tombstoned decoy — so every generic executor/planner
   test below also proves the query layer reads base ∪ delta − deletes. *)
let make_delta_store () =
  let d = Hexa.Delta.create () in
  let rec split n = function
    | x :: rest when n > 0 ->
        let base, pending = split (n - 1) rest in
        (x :: base, pending)
    | rest -> ([], rest)
  in
  let base, pending = split 12 fig1_triples in
  let decoy = Triple.make (ex "decoy") (ex "decoyProp") (ex "decoy") in
  let encode = Dict.Term_dict.encode_triple (Hexa.Delta.dict d) in
  ignore (Hexa.Delta.add_bulk_ids d (Array.of_list (List.map encode (decoy :: base))));
  List.iter (fun t -> ignore (Hexa.Delta.add d t)) pending;
  ignore (Hexa.Delta.remove d decoy);
  assert (Hexa.Delta.pending_inserts d > 0 && Hexa.Delta.pending_deletes d > 0);
  d

(* COVP1 ([pso]) or COVP2 ([pso; pos]) over [triples]. *)
let covp orderings triples =
  let p = Hexa.Partial.create ~orderings () in
  let encode = Dict.Term_dict.encode_triple (Hexa.Partial.dict p) in
  ignore (Hexa.Partial.add_bulk_ids p (Array.of_list (List.map encode triples)));
  Hexa.Store_sig.box_partial p

let all_boxed () =
  [
    Hexa.Store_sig.box_hexastore (make_store ());
    covp [ Hexa.Ordering.Pso ] fig1_triples;
    covp [ Hexa.Ordering.Pso; Hexa.Ordering.Pos ] fig1_triples;
    Hexa.Store_sig.box_delta (make_delta_store ());
  ]

let get_iri store sol var =
  match Binding.get sol var with
  | Some (Binding.Id id) -> (
      match Dict.Term_dict.decode_term (Hexa.Store_sig.dict store) id with
      | Term.Iri iri -> iri
      | t -> Term.to_string t)
  | Some (Binding.Int n) -> string_of_int n
  | None -> "<unbound>"

let locals store sol vars =
  (* Strip the example namespace for readable assertions. *)
  List.map
    (fun v ->
      let s = get_iri store sol v in
      match String.rindex_opt s '/' with
      | Some i -> String.sub s (i + 1) (String.length s - i - 1)
      | None -> s)
    vars

(* ------------------------------------------------------------------ *)
(* Binding                                                             *)
(* ------------------------------------------------------------------ *)

let test_binding_basic () =
  let b = Binding.bind Binding.empty "x" (Binding.Id 1) in
  check_bool "mem" true (Binding.mem b "x");
  check_bool "get" true (Binding.get b "x" = Some (Binding.Id 1));
  check_bool "compatible same" true (Binding.compatible b "x" (Binding.Id 1));
  check_bool "compatible diff" false (Binding.compatible b "x" (Binding.Id 2));
  check_bool "compatible unbound" true (Binding.compatible b "y" (Binding.Id 9));
  (try
     ignore (Binding.bind b "x" (Binding.Id 2));
     Alcotest.fail "rebind accepted"
   with Invalid_argument _ -> ());
  (* Rebinding to the same value is a no-op, not an error. *)
  ignore (Binding.bind b "x" (Binding.Id 1));
  Alcotest.(check (list string)) "vars" [ "x" ] (Binding.vars b)

let test_binding_decode () =
  let d = Dict.Term_dict.create () in
  let id = Dict.Term_dict.encode_term d (Term.iri "http://x/a") in
  check_string "id decodes" "<http://x/a>" (Binding.value_to_string d (Binding.Id id));
  check_string "int decodes" "42" (Binding.value_to_string d (Binding.Int 42))

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

let test_planner_orders_by_selectivity () =
  let store = boxed () in
  let tp_selective = Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "worksFor")) (Algebra.Term (ex "MIT")) in
  let tp_broad = Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") in
  (match Planner.order_bgp store [ tp_broad; tp_selective ] with
  | [ first; _ ] -> check_bool "selective first" true (first = tp_selective)
  | _ -> Alcotest.fail "wrong plan size");
  (* Estimates: worksFor/MIT matches 1 triple; type matches 4. *)
  check_int "estimate selective" 1 (Planner.estimate store tp_selective);
  check_int "estimate broad" 4 (Planner.estimate store tp_broad)

let test_planner_prefers_connected () =
  let store = boxed () in
  (* y-pattern is tiny but disconnected from x; planner must not produce a
     cross product when a connected pattern exists. *)
  let p1 = Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Term (ex "GradStudent")) in
  let p2 = Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "advisor")) (Algebra.Var "a") in
  let p3 = Algebra.tp (Algebra.Var "a") (Algebra.Term (ex "worksFor")) (Algebra.Var "u") in
  match Planner.order_bgp store [ p3; p1; p2 ] with
  | [ _; second; third ] ->
      (* After the seed, each following pattern shares a variable. *)
      let shares a b =
        List.exists (fun v -> List.mem v (Algebra.vars_of_tp a)) (Algebra.vars_of_tp b)
      in
      check_bool "chain is connected" true (shares second third)
  | _ -> Alcotest.fail "wrong plan size"

let test_planner_unknown_constant () =
  let store = boxed () in
  let tp = Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "noSuchProperty")) (Algebra.Var "o") in
  check_int "unknown constant is free" 0 (Planner.estimate store tp)

(* Per-step join strategies.  [?a worksFor ?u] seeds the plan (smallest
   estimate) streaming sorted on ?a through pso; [?s advisor ?a] then
   merge-joins on a Hexastore or delta view (both serve sorted scans)
   but degrades to a hash join on the COVP baselines, which cannot. *)
let test_planner_strategies () =
  let adv = Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "advisor")) (Algebra.Var "a") in
  let works = Algebra.tp (Algebra.Var "a") (Algebra.Term (ex "worksFor")) (Algebra.Var "u") in
  let second_strategy store tps =
    match Planner.plan store tps with
    | [ first; second ] ->
        check_string
          (Hexa.Store_sig.name store ^ " first step")
          "scan"
          (Planner.strategy_name first.Planner.strategy);
        Planner.strategy_name second.Planner.strategy
    | _ -> Alcotest.fail "wrong plan size"
  in
  (match all_boxed () with
  | [ hexa; covp1; covp2; delta ] ->
      check_string "hexastore merges" "merge" (second_strategy hexa [ adv; works ]);
      check_string "covp1 hashes" "hash" (second_strategy covp1 [ adv; works ]);
      check_string "covp2 hashes" "hash" (second_strategy covp2 [ adv; works ]);
      check_string "delta merges" "merge" (second_strategy delta [ adv; works ])
  | _ -> Alcotest.fail "expected four stores");
  (* A disconnected pattern is a deliberate nested-loop product. *)
  let disco = Algebra.tp (Algebra.Var "z") (Algebra.Term (ex "type")) (Algebra.Var "w") in
  check_string "disconnected nests" "nested-loop" (second_strategy (boxed ()) [ adv; disco ]);
  (* The ablation switch forces every join back to nested loops. *)
  Planner.nested_loop_only := true;
  Fun.protect
    ~finally:(fun () -> Planner.nested_loop_only := false)
    (fun () ->
      check_string "ablation nests" "nested-loop" (second_strategy (boxed ()) [ adv; works ]))

(* ------------------------------------------------------------------ *)
(* Exec: BGPs                                                          *)
(* ------------------------------------------------------------------ *)

let test_exec_single_pattern () =
  List.iter
    (fun store ->
      let q = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Term (ex "GradStudent")) ] in
      let sols = Exec.run store q in
      let names = List.sort compare (List.concat_map (fun s -> locals store s [ "x" ]) sols) in
      Alcotest.(check (list string))
        (Hexa.Store_sig.name store ^ " students")
        [ "ID3"; "ID4" ] names)
    (all_boxed ())

let test_exec_join () =
  (* Students and their advisors' employers: ?s advisor ?a . ?a worksFor ?u *)
  List.iter
    (fun store ->
      let q =
        Algebra.Bgp
          [
            Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "advisor")) (Algebra.Var "a");
            Algebra.tp (Algebra.Var "a") (Algebra.Term (ex "worksFor")) (Algebra.Var "u");
          ]
      in
      let sols = Exec.run store q in
      check_int (Hexa.Store_sig.name store ^ " one advisor works") 1 (List.length sols);
      Alcotest.(check (list string)) "row" [ "ID3"; "ID2"; "MIT" ]
        (locals store (List.hd sols) [ "s"; "a"; "u" ]))
    (all_boxed ())

let test_exec_repeated_var () =
  (* ?x advisor ?x must be empty (nobody advises themselves). *)
  let store = boxed () in
  let q = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "advisor")) (Algebra.Var "x") ] in
  check_int "no self-advisors" 0 (List.length (Exec.run store q))

let test_exec_figure1_query1 () =
  (* Figure 1(b) first query: properties relating ID2 to MIT. *)
  List.iter
    (fun store ->
      let q = Algebra.Bgp [ Algebra.tp (Algebra.Term (ex "ID2")) (Algebra.Var "property") (Algebra.Term (ex "MIT")) ] in
      let sols = Exec.run store q in
      Alcotest.(check (list string))
        (Hexa.Store_sig.name store ^ " ID2-MIT relation")
        [ "worksFor" ]
        (List.concat_map (fun s -> locals store s [ "property" ]) sols))
    (all_boxed ())

let test_exec_figure1_query2 () =
  (* Figure 1(b) second query: who relates to Stanford as ID1 does to Yale. *)
  List.iter
    (fun store ->
      let q =
        Algebra.Bgp
          [
            Algebra.tp (Algebra.Term (ex "ID1")) (Algebra.Var "property") (Algebra.Term (ex "Yale"));
            Algebra.tp (Algebra.Var "subj") (Algebra.Var "property") (Algebra.Term (ex "Stanford"));
          ]
      in
      let sols = Exec.run store q in
      (* ID1 phdFrom Yale; ID2 phdFrom Stanford. *)
      Alcotest.(check (list string))
        (Hexa.Store_sig.name store ^ " same relation")
        [ "ID2" ]
        (List.sort compare (List.concat_map (fun s -> locals store s [ "subj" ]) sols)))
    (all_boxed ())

let test_exec_unknown_term_empty () =
  let store = boxed () in
  let q = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "nope")) (Algebra.Var "o") ] in
  check_int "unknown property" 0 (List.length (Exec.run store q))

(* Brute-force reference: evaluate a BGP by scanning all triples per
   pattern with backtracking over term-level matching. *)
let brute_force_bgp triples tps =
  let atom_matches binding atom term =
    match atom with
    | Algebra.Term t -> if Term.equal t term then Some binding else None
    | Algebra.Var v -> (
        match List.assoc_opt v binding with
        | Some t when Term.equal t term -> Some binding
        | Some _ -> None
        | None -> Some ((v, term) :: binding))
  in
  let rec solve binding = function
    | [] -> [ binding ]
    | (tp : Algebra.tp) :: rest ->
        List.concat_map
          (fun (tr : Triple.t) ->
            match atom_matches binding tp.s tr.s with
            | None -> []
            | Some b -> (
                match atom_matches b tp.p tr.p with
                | None -> []
                | Some b -> (
                    match atom_matches b tp.o tr.o with
                    | None -> []
                    | Some b -> solve b rest)))
          triples
  in
  solve [] tps

let canon_solutions store vars sols =
  List.sort compare (List.map (fun s -> locals store s vars) sols)

let canon_brute vars sols =
  List.sort compare
    (List.map
       (fun binding ->
         List.map
           (fun v ->
             match List.assoc_opt v binding with
             | Some (Term.Iri iri) -> (
                 match String.rindex_opt iri '/' with
                 | Some i -> String.sub iri (i + 1) (String.length iri - i - 1)
                 | None -> iri)
             | Some t -> Term.to_string t
             | None -> "<unbound>")
           vars)
       sols)

let gen_atom =
  QCheck.Gen.(
    frequency
      [
        (2, return (Algebra.Var "x"));
        (2, return (Algebra.Var "y"));
        (1, return (Algebra.Var "z"));
        (2, map (fun i -> Algebra.Term (ex (List.nth [ "ID1"; "ID2"; "ID3"; "MIT"; "Yale"; "AI" ] (i mod 6)))) (int_bound 5));
      ])

let gen_tp = QCheck.Gen.(map3 Algebra.tp gen_atom gen_atom gen_atom)

let prop_bgp_matches_brute_force =
  QCheck.Test.make ~name:"executor = brute force on random BGPs (4 stores, incl. delta)" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 3) gen_tp))
    (fun tps ->
      let vars = List.sort_uniq compare (List.concat_map Algebra.vars_of_tp tps) in
      let expected = canon_brute vars (brute_force_bgp fig1_triples tps) in
      List.for_all
        (fun store ->
          canon_solutions store vars (Exec.run store (Algebra.Bgp tps)) = expected)
        (all_boxed ()))

(* Join-strategy equivalence: whatever mix of merge-, hash- and
   nested-loop steps the planner picks must produce exactly the
   nested-loop-only results, on every store kind — the delta store keeps
   pending insert and delete buffers so its merged sorted scans get
   exercised too.  1-4 patterns over three variables gives plenty of
   multi-step plans where merge and hash steps actually fire. *)
let prop_join_strategy_equivalence =
  QCheck.Test.make
    ~name:"merge/hash join strategies = nested-loop on random BGPs (4 stores)" ~count:1000
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_tp))
    (fun tps ->
      let vars = List.sort_uniq compare (List.concat_map Algebra.vars_of_tp tps) in
      let run store = canon_solutions store vars (Exec.run store (Algebra.Bgp tps)) in
      List.for_all
        (fun store ->
          let with_strategies = run store in
          Planner.nested_loop_only := true;
          let baseline =
            Fun.protect
              ~finally:(fun () -> Planner.nested_loop_only := false)
              (fun () -> run store)
          in
          with_strategies = baseline)
        (all_boxed ()))

(* ------------------------------------------------------------------ *)
(* Exec: operators                                                     *)
(* ------------------------------------------------------------------ *)

let test_exec_union_distinct () =
  let store = boxed () in
  let bgp o = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Var "p") (Algebra.Term (ex o)) ] in
  let q = Algebra.Union (bgp "AI", bgp "AI") in
  check_int "union duplicates" 4 (List.length (Exec.run store q));
  let q = Algebra.Distinct (Algebra.Union (bgp "AI", bgp "AI")) in
  check_int "distinct collapses" 2 (List.length (Exec.run store q))

let test_exec_filter () =
  let store = boxed () in
  let q =
    Algebra.Filter
      ( Algebra.E_neq (Algebra.E_atom (Algebra.Var "x"), Algebra.E_atom (Algebra.Term (ex "ID3"))),
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Term (ex "GradStudent")) ] )
  in
  let sols = Exec.run store q in
  Alcotest.(check (list string)) "filtered" [ "ID4" ]
    (List.concat_map (fun s -> locals store s [ "x" ]) sols)

let test_exec_group_count () =
  let store = boxed () in
  (* Count triples per type object. *)
  let q =
    Algebra.Extend_group
      ( [ "t" ],
        [ ("n", Algebra.Count_all) ],
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") ] )
  in
  let sols = Exec.run store q in
  check_int "three types" 3 (List.length sols);
  let counts =
    List.sort compare
      (List.map
         (fun s ->
           ( List.hd (locals store s [ "t" ]),
             match Binding.get s "n" with Some (Binding.Int n) -> n | _ -> -1 ))
         sols)
  in
  Alcotest.(check (list (pair string int))) "counts"
    [ ("AssocProfessor", 1); ("FullProfessor", 1); ("GradStudent", 2) ]
    counts

let test_exec_group_empty_no_keys () =
  let store = boxed () in
  let q =
    Algebra.Extend_group
      ( [],
        [ ("n", Algebra.Count_all) ],
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "nope")) (Algebra.Var "o") ] )
  in
  match Exec.run store q with
  | [ sol ] -> check_bool "count 0" true (Binding.get sol "n" = Some (Binding.Int 0))
  | sols -> Alcotest.failf "expected one group, got %d" (List.length sols)

let test_exec_order_slice () =
  let store = boxed () in
  let q =
    Algebra.Slice
      ( Some 1,
        Some 2,
        Algebra.Order_by
          ( [ { Algebra.key = "x"; descending = false } ],
            Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") ] ) )
  in
  let sols = Exec.run store q in
  Alcotest.(check (list string)) "offset 1 limit 2" [ "ID2"; "ID3" ]
    (List.concat_map (fun s -> locals store s [ "x" ]) sols);
  let q_desc =
    Algebra.Order_by
      ( [ { Algebra.key = "x"; descending = true } ],
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") ] )
  in
  (match Exec.run store q_desc with
  | first :: _ -> Alcotest.(check (list string)) "desc first" [ "ID4" ] (locals store first [ "x" ])
  | [] -> Alcotest.fail "no solutions")

let test_exec_filter_error_semantics () =
  (* A filter referencing an unbound variable is an error → row dropped
     (SPARQL semantics), not a crash and not a pass. *)
  let store = boxed () in
  let q =
    Algebra.Filter
      ( Algebra.E_eq (Algebra.E_atom (Algebra.Var "nope"), Algebra.E_atom (Algebra.Var "x")),
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") ] )
  in
  check_int "all rows dropped" 0 (List.length (Exec.run store q));
  (* BOUND on the same variable is fine. *)
  let q2 =
    Algebra.Filter
      ( Algebra.E_not (Algebra.E_bound "nope"),
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") ] )
  in
  check_int "not bound passes" 4 (List.length (Exec.run store q2))

let test_exec_multi_key_order () =
  let store = boxed () in
  (* Order by type then subject: types tie-break on x. *)
  let q =
    Algebra.Order_by
      ( [ { Algebra.key = "t"; descending = false }; { Algebra.key = "x"; descending = true } ],
        Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "type")) (Algebra.Var "t") ] )
  in
  let rows = List.map (fun s -> locals store s [ "t"; "x" ]) (Exec.run store q) in
  Alcotest.(check (list (list string))) "two-key order"
    [
      [ "AssocProfessor"; "ID2" ];
      [ "FullProfessor"; "ID1" ];
      [ "GradStudent"; "ID4" ];
      [ "GradStudent"; "ID3" ];
    ]
    rows

let test_exec_ask () =
  let store = boxed () in
  let q = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "worksFor")) (Algebra.Term (ex "MIT")) ] in
  check_bool "ask true" true (Exec.ask store q);
  let q2 = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "worksFor")) (Algebra.Term (ex "Yale")) ] in
  check_bool "ask false" false (Exec.ask store q2)

(* ------------------------------------------------------------------ *)
(* SPARQL parser                                                       *)
(* ------------------------------------------------------------------ *)

let parse_ex q =
  let ns = Rdf.Namespace.create () in
  Rdf.Namespace.add ns ~prefix:"ex" ~iri:"http://example.org/";
  Sparql.parse ~namespaces:ns q

let test_sparql_select_basic () =
  let q = parse_ex "SELECT ?x WHERE { ?x ex:type ex:GradStudent . }" in
  check_bool "not ask" false q.is_ask;
  Alcotest.(check (list string)) "projection" [ "x" ] q.projection;
  let store = boxed () in
  let sols = Exec.run store q.algebra in
  check_int "two students" 2 (List.length sols)

let test_sparql_select_star () =
  let q = parse_ex "SELECT * WHERE { ?x ex:advisor ?a }" in
  Alcotest.(check (list string)) "star projection" [ "a"; "x" ] q.projection

let test_sparql_prologue_and_sugar () =
  let q =
    Sparql.parse
      {|PREFIX ex: <http://example.org/>
        SELECT ?t WHERE { ex:ID1 ex:type ?t ; ex:teacherOf ?c . }|}
  in
  let store = boxed () in
  let sols = Exec.run store q.algebra in
  Alcotest.(check (list string)) "prologue + semicolon" [ "FullProfessor" ]
    (List.concat_map (fun s -> locals store s [ "t" ]) sols);
  (* The [a] keyword must expand to rdf:type. *)
  match (Sparql.parse "SELECT ?x WHERE { ?x a ?t }").algebra with
  | Algebra.Project (_, Algebra.Bgp [ { p = Algebra.Term (Term.Iri iri); _ } ]) ->
      check_string "a = rdf:type" Rdf.Namespace.rdf_type iri
  | _ -> Alcotest.fail "unexpected algebra for 'a' pattern"

let test_sparql_union () =
  let q =
    parse_ex
      "SELECT ?x WHERE { { ?x ex:teacherOf ex:AI } UNION { ?x ex:teachingAssist ex:AI } }"
  in
  let store = boxed () in
  check_int "union arms" 2 (List.length (Exec.run store q.algebra))

let test_sparql_filter () =
  let q =
    parse_ex
      "SELECT ?x ?t WHERE { ?x ex:type ?t . FILTER (?t != ex:GradStudent) }"
  in
  let store = boxed () in
  check_int "professors only" 2 (List.length (Exec.run store q.algebra))

let test_sparql_count_group () =
  let q =
    parse_ex
      "SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x ex:type ?t } GROUP BY ?t ORDER BY DESC(?n) LIMIT 1"
  in
  let store = boxed () in
  match Exec.run store q.algebra with
  | [ sol ] ->
      Alcotest.(check (list string)) "top type" [ "GradStudent" ] (locals store sol [ "t" ]);
      check_bool "count 2" true (Binding.get sol "n" = Some (Binding.Int 2))
  | sols -> Alcotest.failf "expected 1 row, got %d" (List.length sols)

let test_sparql_count_distinct () =
  let q = parse_ex "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?x ex:type ?t }" in
  let store = boxed () in
  match Exec.run store q.algebra with
  | [ sol ] -> check_bool "3 distinct types" true (Binding.get sol "n" = Some (Binding.Int 3))
  | _ -> Alcotest.fail "expected one row"

let test_sparql_optional () =
  (* All four people, with their advisor where one exists. *)
  let q =
    parse_ex
      "SELECT ?x ?a WHERE { ?x ex:type ?t . OPTIONAL { ?x ex:advisor ?a } } ORDER BY ?x"
  in
  let store = boxed () in
  let sols = Exec.run store q.algebra in
  check_int "all four kept" 4 (List.length sols);
  let bound_advisors = List.filter (fun s -> Binding.mem s "a") sols in
  check_int "two have advisors" 2 (List.length bound_advisors);
  (* ID3's advisor is ID2. *)
  let id3 = List.find (fun s -> locals store s [ "x" ] = [ "ID3" ]) sols in
  Alcotest.(check (list string)) "ID3 advisor" [ "ID2" ] (locals store id3 [ "a" ]);
  (* BOUND filters compose with OPTIONAL: people with NO advisor. *)
  let q2 =
    parse_ex
      "SELECT ?x WHERE { ?x ex:type ?t . OPTIONAL { ?x ex:advisor ?a } FILTER (!BOUND(?a)) }"
  in
  check_int "two professors lack advisors" 2 (List.length (Exec.run store q2.algebra))

let test_exec_left_join_direct () =
  let store = boxed () in
  let left = Algebra.Bgp [ Algebra.tp (Algebra.Var "x") (Algebra.Term (ex "teacherOf")) (Algebra.Var "c") ] in
  let right = Algebra.Bgp [ Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "takesCourse")) (Algebra.Var "c") ] in
  let sols = Exec.run store (Algebra.Left_join (left, right)) in
  (* Two courses taught; only DataBases has a taker. *)
  check_int "both lefts kept" 2 (List.length sols);
  check_int "one extended" 1 (List.length (List.filter (fun s -> Binding.mem s "s") sols))

let test_sparql_ask () =
  let q = parse_ex "ASK { ex:ID2 ex:worksFor ex:MIT }" in
  check_bool "is_ask" true q.is_ask;
  check_bool "holds" true (Exec.ask (boxed ()) q.algebra)

let test_sparql_construct () =
  let store = boxed () in
  (* Derive an "employs" edge from worksFor, inverted. *)
  let q =
    parse_ex
      "CONSTRUCT { ?org ex:employs ?p } WHERE { ?p ex:worksFor ?org }"
  in
  check_bool "has template" true (q.template <> None);
  let triples = Exec.construct store ~template:(Option.get q.template) q.algebra in
  Alcotest.(check (list string)) "inverted edge"
    [ "<http://example.org/MIT> <http://example.org/employs> <http://example.org/ID2> ." ]
    (List.map Triple.to_string triples);
  (* Templates over unbound optionals drop the incomplete instantiations. *)
  let q2 =
    parse_ex
      "CONSTRUCT { ?x ex:advisedBy ?a } WHERE { ?x ex:type ?t . OPTIONAL { ?x ex:advisor ?a } }"
  in
  let triples2 = Exec.construct store ~template:(Option.get q2.template) q2.algebra in
  check_int "only bound advisors" 2 (List.length triples2);
  (* Duplicate instantiations collapse. *)
  let q3 = parse_ex "CONSTRUCT { ex:u ex:hasDegreeHolder ?x } WHERE { ?x ex:bachelorFrom ?u }" in
  let triples3 = Exec.construct store ~template:(Option.get q3.template) q3.algebra in
  check_int "deduplicated" 4 (List.length triples3);
  (* A template placing a literal in subject position drops the row. *)
  let lit_store =
    Hexa.Store_sig.box_hexastore
      (Hexa.Hexastore.of_triples
         [ Triple.make (ex "s") (ex "p") (Term.string_literal "v") ])
  in
  let q4 = parse_ex "CONSTRUCT { ?o ex:q ?x } WHERE { ?x ex:p ?o }" in
  let triples4 = Exec.construct lit_store ~template:(Option.get q4.template) q4.algebra in
  check_int "literal subjects skipped" 0 (List.length triples4)

let test_sparql_values () =
  let store = boxed () in
  (* Single-variable form restricts a pattern. *)
  let q =
    parse_ex
      "SELECT ?x ?t WHERE { VALUES ?x { ex:ID1 ex:ID3 } ?x ex:type ?t } ORDER BY ?x"
  in
  let rows = List.map (fun s -> locals store s [ "x"; "t" ]) (Exec.run store q.algebra) in
  Alcotest.(check (list (list string))) "values filter"
    [ [ "ID1"; "FullProfessor" ]; [ "ID3"; "GradStudent" ] ]
    rows;
  (* Multi-variable form with UNDEF. *)
  let q2 =
    parse_ex
      "SELECT ?x ?u WHERE { VALUES (?x ?u) { (ex:ID1 ex:Yale) (ex:ID2 UNDEF) } ?x ex:phdFrom ?u }"
  in
  let rows2 = List.map (fun s -> locals store s [ "x"; "u" ]) (Exec.run store q2.algebra) in
  Alcotest.(check (list (list string))) "multi var + UNDEF"
    [ [ "ID1"; "Yale" ]; [ "ID2"; "Stanford" ] ]
    (List.sort compare rows2);
  (* Rows over unknown terms drop out. *)
  let q3 = parse_ex "SELECT ?x WHERE { VALUES ?x { ex:Nobody ex:ID4 } ?x ex:type ?t }" in
  check_int "unknown row dropped" 1 (List.length (Exec.run store q3.algebra))

let test_sparql_errors () =
  let expect_error text =
    match parse_ex text with
    | exception Sparql.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "SELECT WHERE { ?x ?p ?o }";           (* empty projection *)
  expect_error "SELECT ?x { ?x ?p ?o ";               (* unterminated group *)
  expect_error "SELECT ?x WHERE { ?x nope:x ?o }";    (* unbound prefix *)
  expect_error "FROB ?x WHERE { }";                   (* not a query form *)
  expect_error "SELECT ?x WHERE { ?x ?p ?o } GROUP ?x"; (* missing BY *)
  expect_error "SELECT ?x WHERE { ?x ?p ?o } LIMIT ?x"  (* bad limit *)

(* Fuzz: any text gives a query or a typed parse error — never another
   exception, deep nesting included.  Inputs are arbitrary bytes and
   byte-level mutations (overwrite, insert, delete, duplicate a span) of
   valid queries and paths. *)
let sparql_corpus =
  let deep n opening closing body = String.make n opening ^ body ^ String.make n closing in
  [
    "SELECT ?x WHERE { ?x <http://e/p> ?y . OPTIONAL { ?x <http://e/q> ?z } FILTER (?y != 3 && \
     !BOUND(?z)) } ORDER BY DESC(?x) ?y LIMIT 5 OFFSET 1";
    "PREFIX ex: <http://e/> BASE <http://b/> SELECT DISTINCT (COUNT(DISTINCT ?x) AS ?n) ?y WHERE \
     { { ?x a ex:C ; ex:p \"v\"@en , \"w\"^^ex:dt } UNION { ?x <rel> -1.5 } VALUES (?x ?y) { \
     (ex:a UNDEF) } } GROUP BY ?y";
    "PREFIX ex: <http://e/> CONSTRUCT { ?x ex:q ?y . } WHERE { ?x ex:p ?y FILTER (?y >= true) }";
    "ASK { ?s ?p \"a\\\"b\\n\" . VALUES ?s { <http://e/s> } }";
    "SELECT * WHERE " ^ deep 300 '{' '}' "?s ?p ?o";
    "SELECT ?x WHERE { ?x ?p ?o FILTER " ^ deep 300 '(' ')' "?x" ^ " }";
  ]

let ppath_corpus = [ "<http://e/p>/^ex:q*|(ex:r+)?"; String.make 200 '(' ^ "ex:p" ^ String.make 200 ')' ]

let gen_mutant corpus =
  let open QCheck.Gen in
  let special = oneofl [ '{'; '}'; '('; ')'; '<'; '>'; '"'; '?'; ':'; '.'; ';'; ','; '\\'; '@'; '^'; ' ' ] in
  let byte = frequency [ (1, char); (2, special) ] in
  let mutate s =
    let n = String.length s in
    let* i = int_bound (max 0 n) and* len = int_range 1 8 and* c = byte in
    let i = min i n in
    let len = min len (n - i) in
    oneofl
      [
        (if i < n then String.mapi (fun j x -> if j = i then c else x) s else s);
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len);
        String.sub s 0 (i + len) ^ String.sub s i (n - i);
      ]
  in
  let rec mutations k s = if k = 0 then return s else mutate s >>= mutations (k - 1) in
  frequency
    [
      (1, string_size ~gen:char (int_bound 64));
      (4, oneofl corpus >>= fun s -> int_range 1 4 >>= fun k -> mutations k s);
    ]

let prop_sparql_parse_total =
  QCheck.Test.make ~name:"Sparql.parse: a query or Parse_error on any text" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_mutant sparql_corpus))
    (fun text ->
      match parse_ex text with
      | _ -> true
      | exception Sparql.Parse_error _ -> true
      | exception e -> QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

(* Layout: any blanks, line ends ("\n", "\r\n" or a lone "\r") and
   comments between tokens, and keywords in any case, give the same
   query; a bad token gives the same error, on the line it stands on.
   The corpus is [sparql_corpus]'s flat queries, one more FILTER and a
   LUBM read, written with one space between tokens, so that splitting
   on spaces gives the token boundaries. *)
let spaced_corpus =
  [
    "SELECT ?x WHERE { ?x <http://e/p> ?y . OPTIONAL { ?x <http://e/q> ?z } FILTER ( ?y != 3 && ! \
     BOUND ( ?z ) ) } ORDER BY DESC ( ?x ) ?y LIMIT 5 OFFSET 1";
    "PREFIX ex: <http://e/> BASE <http://b/> SELECT DISTINCT ( COUNT ( DISTINCT ?x ) AS ?n ) ?y WHERE \
     { { ?x a ex:C ; ex:p \"v\"@en , \"w\"^^ex:dt } UNION { ?x <rel> -1.5 } VALUES ( ?x ?y ) { ( \
     ex:a UNDEF ) } } GROUP BY ?y";
    "PREFIX ex: <http://e/> CONSTRUCT { ?x ex:q ?y . } WHERE { ?x ex:p ?y FILTER ( ?y >= true ) }";
    "ASK { ?s ?p \"a\\\"b\\n\" . VALUES ?s { <http://e/s> } }";
    "SELECT ?x WHERE { ?x ?p ?o FILTER ( ?o < 3 || ?o > 7 ) } ORDER BY ASC ( ?o )";
    "SELECT ?c ?t WHERE { <http://www.Department0.University2.edu/UndergraduateStudent185> \
     <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#takesCourse> ?c . ?t \
     <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#teacherOf> ?c . }";
  ]

let sparql_keywords =
  [ "SELECT"; "ASK"; "WHERE"; "FILTER"; "UNION"; "DISTINCT"; "GROUP"; "BY"; "ORDER"; "LIMIT";
    "OFFSET"; "COUNT"; "AS"; "PREFIX"; "BASE"; "DESC"; "ASC"; "BOUND"; "OPTIONAL"; "CONSTRUCT";
    "VALUES"; "UNDEF" ]

let layout_pieces = [ " "; "\t"; "\n"; "\r\n"; "\r"; "# note { ?x\n"; "#\r\n"; "# x\r" ]

(* The line of [text.[pos]]: "\r\n", "\n" and a lone "\r" each end one. *)
let line_at text pos =
  let line = ref 1 in
  for i = 0 to pos - 1 do
    if text.[i] = '\n' || (text.[i] = '\r' && (i + 1 >= String.length text || text.[i + 1] <> '\n')) then
      incr line
  done;
  !line

type layout = {
  query : int;  (* index into [spaced_corpus] *)
  seps : string list list;  (* one separator per boundary, reused cyclically *)
  cases : int list;  (* per keyword, a bit per letter: lower it *)
  bad_at : int;  (* the bad token goes before this token *)
  bad : string;
}

let gen_layout =
  let open QCheck.Gen in
  let sep = list_size (int_range 1 3) (oneofl layout_pieces) in
  let* query = int_bound (List.length spaced_corpus - 1) in
  let* seps = list_size (int_range 1 16) sep in
  let* cases = list_size (int_range 1 8) nat in
  let* bad_at = int_bound 80 in
  let* bad = oneofl [ "%"; "bogus"; "?"; "@"; "\"open" ] in
  return { query; seps; cases; bad_at; bad }

(* The text with one space between tokens, and laid out: each with the
   bad token if [bad], and the laid-out text's line of the bad token. *)
let render ~bad l =
  let toks = String.split_on_char ' ' (List.nth spaced_corpus l.query) in
  let at = l.bad_at mod (List.length toks + 1) in
  let toks =
    if bad then List.filteri (fun i _ -> i < at) toks @ (l.bad :: List.filteri (fun i _ -> i >= at) toks)
    else toks
  in
  let nth_cyclic xs i = List.nth xs (i mod List.length xs) in
  let recase i tok =
    if not (List.mem tok sparql_keywords) then tok
    else
      let bits = nth_cyclic l.cases i in
      String.mapi (fun j c -> if bits land (1 lsl j) <> 0 then Char.lowercase_ascii c else c) tok
  in
  let buf = Buffer.create 256 and bad_pos = ref 0 in
  List.iteri
    (fun i tok ->
      if i > 0 then List.iter (Buffer.add_string buf) (nth_cyclic l.seps i);
      if bad && i = at then bad_pos := Buffer.length buf;
      Buffer.add_string buf (recase i tok))
    toks;
  let laid = Buffer.contents buf in
  (String.concat " " toks, laid, line_at laid !bad_pos)

let prop_sparql_layout =
  let outcome text =
    match parse_ex text with q -> Ok q | exception Sparql.Parse_error (line, msg) -> Error (line, msg)
  in
  QCheck.Test.make ~name:"Sparql.parse: layout and keyword case do not change the query" ~count:1000
    (QCheck.make
       ~print:(fun l ->
         let _, laid, _ = render ~bad:false l and _, bad, line = render ~bad:true l in
         Printf.sprintf "%S\nwith %S on line %d:\n%S" laid l.bad line bad)
       gen_layout)
    (fun l ->
      let canonical, laid, _ = render ~bad:false l in
      let canonical_bad, laid_bad, line = render ~bad:true l in
      (match (outcome canonical, outcome laid) with
      | Ok q, Ok q' when q = q' -> ()
      | Ok _, _ -> QCheck.Test.fail_report "the laid-out query differs"
      | Error (_, msg), _ -> QCheck.Test.fail_reportf "canonical text refused: %s" msg);
      match (outcome canonical_bad, outcome laid_bad) with
      | Error (1, msg), Error (line', msg') when line' = line && msg' = msg -> true
      | Error (l1, m1), Error (l2, m2) ->
          QCheck.Test.fail_reportf "canonical: line %d %S; laid out: line %d %S (expected line %d)" l1 m1
            l2 m2 line
      | _ -> QCheck.Test.fail_report "a bad token was accepted")

let prop_ppath_parse_total =
  let h = make_store () in
  QCheck.Test.make ~name:"Ppath.parse: a path that evaluates, or Parse_error, on any text"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_mutant ppath_corpus))
    (fun text ->
      let ns = Rdf.Namespace.create () in
      Rdf.Namespace.add ns ~prefix:"ex" ~iri:"http://example.org/";
      match Ppath.eval_from h ~start:0 (Ppath.parse ~namespaces:ns text) with
      | _ -> true
      | exception Ppath.Parse_error _ -> true
      | exception e -> QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

let test_sparql_illegal_iri () =
  (match parse_ex "SELECT * WHERE { ?x ?p ?y OPTIONAL { ?x <http://e/<> ?z } }" with
  | exception Sparql.Parse_error _ -> ()
  | _ -> Alcotest.fail "an IRI holding '<' was accepted");
  match Ppath.parse "<a b>/<http://e/p>" with
  | exception Ppath.Parse_error _ -> ()
  | _ -> Alcotest.fail "a path IRI holding a space was accepted"

let test_sparql_error_line () =
  match parse_ex "SELECT ?x WHERE {\n ?x ?p\n}" with
  | exception Sparql.Parse_error (line, _) -> check_bool "line >= 2" true (line >= 2)
  | _ -> Alcotest.fail "no error"

(* ------------------------------------------------------------------ *)
(* Path                                                                *)
(* ------------------------------------------------------------------ *)

(* §4.3's fixed property chain p1/.../pn: a right-nested [Ppath.Seq] of
   [Pred]s, as the parser builds it. *)
let chain names =
  match List.rev_map (fun n -> Ppath.Pred ("http://example.org/" ^ n)) names with
  | [] -> invalid_arg "chain: no property"
  | last :: rest -> List.fold_left (fun acc p -> Ppath.Seq (p, acc)) last rest

let test_path_follow () =
  let h = make_store () in
  let d = Hexa.Hexastore.dict h in
  let id name = Option.get (Dict.Term_dict.find_term d (ex name)) in
  (* advisor/worksFor: ID3 -> ID2 -> MIT. *)
  Alcotest.(check (list (pair int int))) "two-hop" [ (id "ID3", id "MIT") ]
    (Ppath.pairs h (chain [ "advisor"; "worksFor" ]));
  (* advisor alone: two pairs. *)
  check_int "one-hop pairs" 2 (List.length (Ppath.pairs h (chain [ "advisor" ])));
  check_int "unknown property" 0 (List.length (Ppath.pairs h (chain [ "advisor"; "nosuch" ])))

let test_path_follow_from () =
  let h = make_store () in
  let d = Hexa.Hexastore.dict h in
  let id name = Option.get (Dict.Term_dict.find_term d (ex name)) in
  let reached = Ppath.eval_from h ~start:(id "ID4") (chain [ "advisor"; "phdFrom" ]) in
  Alcotest.(check (list int)) "ID4 -> ID1 -> Yale" [ id "Yale" ]
    (Vectors.Sorted_ivec.to_list reached);
  let nowhere = Ppath.eval_from h ~start:(id "MIT") (chain [ "advisor" ]) in
  check_int "dead end" 0 (Vectors.Sorted_ivec.length nowhere)

(* ------------------------------------------------------------------ *)
(* Star merge-join                                                     *)
(* ------------------------------------------------------------------ *)

let star_fixture () =
  let h = make_store () in
  let d = Hexa.Hexastore.dict h in
  let id name = Option.get (Dict.Term_dict.find_term d (ex name)) in
  (h, id)

let test_star_subjects_bound () =
  let h, id = star_fixture () in
  (* Grad students with an advisor: type=GradStudent ∧ has advisor. *)
  let got =
    Star.subjects h
      [ { Star.p = id "type"; o = Some (id "GradStudent") }; { Star.p = id "advisor"; o = None } ]
  in
  Alcotest.(check (list int)) "both grads" [ id "ID3"; id "ID4" ]
    (List.sort compare (Vectors.Sorted_ivec.to_list got));
  (* Adding a bound-object arm narrows it. *)
  let got =
    Star.subjects h
      [
        { Star.p = id "type"; o = Some (id "GradStudent") };
        { Star.p = id "advisor"; o = Some (id "ID2") };
      ]
  in
  Alcotest.(check (list int)) "only ID3" [ id "ID3" ] (Vectors.Sorted_ivec.to_list got)

let test_star_edge_cases () =
  let h, id = star_fixture () in
  check_int "empty constraints = all subjects" 4 (Star.count h []);
  check_int "unknown property" 0 (Star.count h [ { Star.p = -1; o = None } ]);
  check_int "unsatisfiable object" 0
    (Star.count h [ { Star.p = id "type"; o = Some (id "ID1") } ])

let test_star_of_bgp () =
  let h, _ = star_fixture () in
  let star_bgp =
    [
      Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "type")) (Algebra.Term (ex "GradStudent"));
      Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "advisor")) (Algebra.Var "a");
    ]
  in
  (match Star.of_bgp h star_bgp with
  | Some (v, constraints) ->
      check_string "subject var" "s" v;
      check_int "two constraints" 2 (List.length constraints)
  | None -> Alcotest.fail "star not recognised");
  (* Not stars: different subject vars; variable property; shared object var. *)
  let not_star_1 =
    [ Algebra.tp (Algebra.Var "a") (Algebra.Term (ex "type")) (Algebra.Var "t");
      Algebra.tp (Algebra.Var "b") (Algebra.Term (ex "type")) (Algebra.Var "u") ]
  in
  let not_star_2 = [ Algebra.tp (Algebra.Var "s") (Algebra.Var "p") (Algebra.Var "o") ] in
  let not_star_3 =
    [ Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "teacherOf")) (Algebra.Var "x");
      Algebra.tp (Algebra.Var "s") (Algebra.Term (ex "teachingAssist")) (Algebra.Var "x") ]
  in
  check_bool "different subjects rejected" true (Star.of_bgp h not_star_1 = None);
  check_bool "variable property rejected" true (Star.of_bgp h not_star_2 = None);
  check_bool "shared object var rejected" true (Star.of_bgp h not_star_3 = None)

let prop_star_matches_exec =
  (* Random star BGPs: the merge-join result must equal the generic
     executor's distinct subject bindings. *)
  let gen_constraint =
    QCheck.Gen.(
      map2
        (fun p_idx o_choice ->
          let props = [ "type"; "advisor"; "bachelorFrom"; "teacherOf"; "mastersFrom" ] in
          let objs = [ "GradStudent"; "ID1"; "ID2"; "MIT"; "Yale"; "Stanford"; "AI" ] in
          let p = List.nth props (p_idx mod List.length props) in
          match o_choice mod 3 with
          | 0 -> (p, None)
          | n -> (p, Some (List.nth objs (n * o_choice mod List.length objs))))
        (int_bound 10) (int_bound 20))
  in
  QCheck.Test.make ~name:"star merge-join = generic executor on random stars" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_constraint))
    (fun arms ->
      let h, id = star_fixture () in
      (* Distinct free-object variables per arm. *)
      let tps =
        List.mapi
          (fun i (p, o) ->
            let obj =
              match o with
              | Some name -> Algebra.Term (ex name)
              | None -> Algebra.Var (Printf.sprintf "o%d" i)
            in
            Algebra.tp (Algebra.Var "s") (Algebra.Term (ex p)) obj)
          arms
      in
      let constraints =
        List.map
          (fun (p, o) -> { Star.p = id p; o = Option.map (fun n -> id n) o })
          arms
      in
      let star = Vectors.Sorted_ivec.to_list (Star.subjects h constraints) in
      let exec =
        Exec.run (Hexa.Store_sig.box_hexastore h)
          (Algebra.Distinct (Algebra.Project ([ "s" ], Algebra.Bgp tps)))
        |> List.filter_map (fun sol ->
               match Binding.get sol "s" with Some (Binding.Id i) -> Some i | _ -> None)
        |> List.sort_uniq compare
      in
      star = exec)

(* ------------------------------------------------------------------ *)
(* Algebra: executor = reference evaluator                             *)
(* ------------------------------------------------------------------ *)

(* A graph with IRIs and integer literals, so filters and sort keys
   meet both numeric and spelling comparisons. *)
let algebra_triples =
  let num n = Term.typed_literal (string_of_int n) ~datatype:(Namespace.xsd "integer") in
  let t s p o = Triple.make (ex s) (ex p) o in
  [
    t "a" "p" (ex "b"); t "a" "p" (ex "c"); t "b" "p" (ex "c"); t "c" "p" (ex "a");
    t "a" "q" (ex "d"); t "b" "q" (ex "d"); t "d" "q" (ex "a"); t "e" "r" (ex "a");
    t "a" "v" (num 1); t "b" "v" (num 10); t "c" "v" (num 2); t "d" "v" (num 10);
    t "b" "r" (ex "e"); t "c" "r" (ex "c");
  ]

(* Every store kind the executor runs over, raw and packed where the
   kind has a representation: bulk-built Hexastores, a Delta view with
   pending inserts and a tombstone over each base, a Delta with writes
   in its sorted level too, the COVP baselines and a partial store.
   The packed leveled delta and the packed Hexastore also run at width
   2 and the raw delta view at width 4, every driving scan fanned
   out. *)
let algebra_stores () =
  let encode d = Array.of_list (List.map (Dict.Term_dict.encode_triple d) algebra_triples) in
  let hexa repr =
    let h = Hexa.Hexastore.create ~repr () in
    ignore (Hexa.Hexastore.add_bulk_ids h (encode (Hexa.Hexastore.dict h)));
    h
  in
  let delta repr =
    let h = Hexa.Hexastore.create ~repr () in
    let d = Hexa.Hexastore.dict h in
    let decoy = Triple.make (ex "e") (ex "p") (ex "e") in
    let base, pending = List.partition (fun tr -> Hashtbl.hash tr mod 3 <> 0) algebra_triples in
    ignore
      (Hexa.Hexastore.add_bulk_ids h
         (Array.of_list (List.map (Dict.Term_dict.encode_triple d) (decoy :: base))));
    let dl = Hexa.Delta.of_base h in
    List.iter (fun tr -> ignore (Hexa.Delta.add dl tr)) pending;
    ignore (Hexa.Delta.remove dl decoy);
    dl
  in
  (* Writes in the sorted level as well as the buffers: 24 decoys pad
     the base so a level of four stays below an eighth of it.  Two
     decoy tombstones and two inserts auto-flush into the level; the
     other decoys and inserts stay pending. *)
  let leveled repr =
    let h = Hexa.Hexastore.create ~repr () in
    let d = Hexa.Hexastore.dict h in
    let decoys = List.init 24 (fun i -> Triple.make (ex "e") (ex "p") (ex ("decoy" ^ string_of_int i))) in
    let base, pending = List.partition (fun tr -> Hashtbl.hash tr mod 3 <> 0) algebra_triples in
    ignore
      (Hexa.Hexastore.add_bulk_ids h
         (Array.of_list (List.map (Dict.Term_dict.encode_triple d) (decoys @ base))));
    let dl = Hexa.Delta.of_base ~insert_threshold:1 ~delete_threshold:1 h in
    let first l = List.filteri (fun i _ -> i < 2) l and rest l = List.filteri (fun i _ -> i >= 2) l in
    List.iter (fun tr -> ignore (Hexa.Delta.remove dl tr)) (first decoys);
    List.iter (fun tr -> ignore (Hexa.Delta.add dl tr)) (first pending);
    assert (Hexa.Delta.level_size dl = 4);
    Hexa.Delta.set_thresholds ~insert:1000 ~delete:1000 dl;
    List.iter (fun tr -> ignore (Hexa.Delta.remove dl tr)) (rest decoys);
    List.iter (fun tr -> ignore (Hexa.Delta.add dl tr)) (rest pending);
    dl
  in
  let partial = Hexa.Partial.create ~orderings:[ Hexa.Ordering.Pso; Hexa.Ordering.Osp ] () in
  ignore (Hexa.Partial.add_bulk_ids partial (encode (Hexa.Partial.dict partial)));
  let seq s = (s, 1) in
  [
    seq (Hexa.Store_sig.box_hexastore (hexa Vectors.Sorted_ivec.Raw));
    seq (Hexa.Store_sig.box_hexastore (hexa Vectors.Sorted_ivec.Packed));
    seq (Hexa.Store_sig.box_delta (delta Vectors.Sorted_ivec.Raw));
    seq (Hexa.Store_sig.box_delta (delta Vectors.Sorted_ivec.Packed));
    seq (Hexa.Store_sig.box_delta (leveled Vectors.Sorted_ivec.Raw));
    (Hexa.Store_sig.box_delta (leveled Vectors.Sorted_ivec.Packed), 2);
    seq (covp [ Hexa.Ordering.Pso ] algebra_triples);
    seq (covp [ Hexa.Ordering.Pso; Hexa.Ordering.Pos ] algebra_triples);
    seq (Hexa.Store_sig.box_partial partial);
    (Hexa.Store_sig.box_hexastore (hexa Vectors.Sorted_ivec.Packed), 2);
    (Hexa.Store_sig.box_delta (delta Vectors.Sorted_ivec.Raw), 4);
  ]

let gen_algebra =
  let open QCheck.Gen in
  let vars = [ "x"; "y"; "z"; "w" ] in
  let gen_var = oneofl vars in
  let consts =
    List.map ex [ "a"; "b"; "c"; "d"; "e"; "p"; "q"; "r"; "v"; "missing" ]
    @ List.map
        (fun n -> Term.typed_literal (string_of_int n) ~datatype:(Namespace.xsd "integer"))
        [ 1; 2; 10; 7 ]
  in
  let gen_const = oneofl consts in
  let gen_atom =
    frequency [ (3, map (fun v -> Algebra.Var v) gen_var); (2, map (fun t -> Algebra.Term t) gen_const) ]
  in
  let gen_pred =
    frequency
      [ (1, map (fun v -> Algebra.Var v) gen_var);
        (4, map (fun p -> Algebra.Term (ex p)) (oneofl [ "p"; "q"; "r"; "v" ])) ]
  in
  let gen_tp = map3 Algebra.tp gen_atom gen_pred gen_atom in
  let gen_bgp = map (fun tps -> Algebra.Bgp tps) (list_size (int_range 0 3) gen_tp) in
  (* Two sides that both stream sorted on one shared subject: the shape
     the executor merge-joins. *)
  let gen_star_side v =
    map2
      (fun p o -> Algebra.Bgp [ Algebra.tp (Algebra.Var v) (Algebra.Term (ex p)) o ])
      (oneofl [ "p"; "q"; "r"; "v" ])
      gen_atom
  in
  let gen_sorted_pair = gen_var >>= fun v -> pair (gen_star_side v) (gen_star_side v) in
  let gen_values =
    let* vs = map (List.sort_uniq compare) (list_size (int_range 1 2) gen_var) in
    let cell = frequency [ (1, return None); (4, map Option.some gen_const) ] in
    let* rows = list_size (int_range 0 3) (flatten_l (List.map (fun _ -> cell) vs)) in
    return (Algebra.Values (vs, rows))
  in
  let rec gen_expr depth =
    let operand = map (fun a -> Algebra.E_atom a) gen_atom in
    let cmp =
      let* a = operand and* b = operand in
      oneofl
        [ Algebra.E_eq (a, b); E_neq (a, b); E_lt (a, b); E_le (a, b); E_gt (a, b); E_ge (a, b) ]
    in
    if depth = 0 then frequency [ (4, cmp); (1, map (fun v -> Algebra.E_bound v) gen_var) ]
    else
      frequency
        [
          (3, cmp);
          (1, map (fun v -> Algebra.E_bound v) gen_var);
          (1, map (fun e -> Algebra.E_not e) (gen_expr (depth - 1)));
          (1, map2 (fun a b -> Algebra.E_and (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1, map2 (fun a b -> Algebra.E_or (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
        ]
  in
  let gen_agg =
    oneofl [ Algebra.Count_all ]
    |> fun all -> frequency [ (1, all); (1, map (fun v -> Algebra.Count_var v) gen_var);
                              (1, map (fun v -> Algebra.Count_distinct v) gen_var) ]
  in
  let gen_orders = list_size (int_range 1 2) (map2 (fun key descending -> { Algebra.key; descending }) gen_var bool) in
  let rec tree depth =
    if depth = 0 then frequency [ (4, gen_bgp); (1, gen_values) ]
    else
      let sub = tree (depth - 1) in
      frequency
        [
          (2, gen_bgp);
          (1, gen_values);
          (3, map2 (fun a b -> Algebra.Join (a, b)) sub sub);
          (2, map3 (fun a b c -> Algebra.Join (Algebra.Union (a, b), c)) sub sub gen_bgp);
          (3, map2 (fun a b -> Algebra.Left_join (a, b)) sub sub);
          (2, map (fun (a, b) -> Algebra.Join (a, b)) gen_sorted_pair);
          (2, map (fun (a, b) -> Algebra.Left_join (a, b)) gen_sorted_pair);
          (2, map2 (fun a b -> Algebra.Union (a, b)) sub sub);
          (2, map2 (fun e q -> Algebra.Filter (e, q)) (gen_expr 2) sub);
          (1, map (fun q -> Algebra.Distinct q) sub);
          (1, map2 (fun vs q -> Algebra.Project (List.sort_uniq compare vs, q)) (list_size (int_range 0 3) gen_var) sub);
          ( 1,
            map3
              (fun keys aggs q ->
                Algebra.Extend_group
                  (List.sort_uniq compare keys, List.mapi (fun i a -> ([| "n"; "m" |].(i), a)) aggs, q))
              (list_size (int_range 0 2) gen_var)
              (list_size (int_range 0 2) gen_agg)
              sub );
          (1, map2 (fun o q -> Algebra.Order_by (o, q)) gen_orders sub);
        ]
  in
  (* The root: a solution multiset, or a total order on every variable
     (ties are then equal rows) under optional projection, DISTINCT and
     a slice, so ordered answers compare as lists. *)
  let* body = int_range 1 3 >>= tree in
  let* ordered = bool in
  if not ordered then return body
  else
    let* keys = shuffle_l [ "x"; "y"; "z"; "w"; "n"; "m" ] in
    let* dirs = flatten_l (List.map (fun _ -> bool) keys) in
    let q = Algebra.Order_by (List.map2 (fun key descending -> { Algebra.key; descending }) keys dirs, body) in
    let* q = frequency [ (1, return q); (1, map (fun vs -> Algebra.Project (vs, q)) (list_size (int_range 1 3) gen_var)) ] in
    let* q = frequency [ (2, return q); (1, return (Algebra.Distinct q)) ] in
    frequency
      [ (1, return q);
        (2, map2 (fun off lim -> Algebra.Slice (off, lim, q)) (opt (int_bound 3)) (opt (int_bound 4))) ]

(* The generator's total order: every variable a tree can bind is a
   key.  A partial ORDER BY leaves ties in whatever order its input had,
   so only this one compares as a list. *)
let rec ordered_root = function
  | Algebra.Order_by (orders, _) ->
      List.sort compare (List.map (fun o -> o.Algebra.key) orders)
      = [ "m"; "n"; "w"; "x"; "y"; "z" ]
  | Algebra.Slice (_, _, q) | Algebra.Distinct q | Algebra.Project (_, q) -> ordered_root q
  | _ -> false

let model_of store =
  let m = Check.Model.create () in
  Hexa.Store_sig.iter store Hexa.Pattern.wildcard (fun s p o ->
      ignore (Check.Model.add m { Dict.Term_dict.s; p; o }));
  m

let prop_algebra_matches_reference =
  QCheck.Test.make ~name:"executor = reference evaluator on random algebra trees (every store kind)"
    ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Algebra.pp) gen_algebra)
    (fun q ->
      List.for_all
        (fun (store, width) ->
          let expected = Check.Reference.eval (Hexa.Store_sig.dict store) (model_of store) q in
          let got =
            Par.with_domains width (fun () ->
                let saved = !Planner.parallel_min_rows in
                if width > 1 then Planner.parallel_min_rows := 0;
                Fun.protect
                  ~finally:(fun () -> Planner.parallel_min_rows := saved)
                  (fun () -> List.map Binding.to_list (Exec.run store q)))
          in
          let same =
            if ordered_root q then got = expected
            else List.sort compare got = List.sort compare expected
          in
          if not same then
            QCheck.Test.fail_reportf "%s (width %d): executor %d rows, reference %d rows"
              (Hexa.Store_sig.name store) width (List.length got) (List.length expected);
          true)
        (algebra_stores ()))

(* The SPARQL 1.1 §18.2.2 translation: OPTIONAL applies to what precedes
   it in the group, and a later triple block joins the result. *)
let test_optional_keeps_its_place () =
  let store =
    Hexa.Store_sig.box_hexastore
      (Hexa.Hexastore.of_triples
         [ Triple.make (ex "a") (ex "p") (ex "b"); Triple.make (ex "a") (ex "q") (ex "c");
           Triple.make (ex "d") (ex "r") (ex "e") ])
  in
  let q = parse_ex "SELECT * WHERE { ?x ex:p ?y OPTIONAL { ?x ex:q ?z } ?w ex:r ?z }" in
  check_int "spec answer is empty" 0 (List.length (Exec.run store q.algebra));
  let dict = Hexa.Store_sig.dict store in
  check_int "reference agrees" 0
    (List.length (Check.Reference.eval dict (model_of store) q.algebra))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let test_results_table () =
  let store = boxed () in
  let q = parse_ex "SELECT ?x ?t WHERE { ?x ex:type ?t } ORDER BY ?x" in
  let sols = Exec.run store q.algebra in
  let table = Results.to_table (Hexa.Store_sig.dict store) ~columns:q.projection sols in
  check_int "rows" 4 (List.length table);
  check_int "cols" 2 (List.length (List.hd table));
  let csv = Results.to_csv (Hexa.Store_sig.dict store) ~columns:q.projection sols in
  check_int "csv lines" 5 (List.length (String.split_on_char '\n' (String.trim csv)));
  let rendered = Format.asprintf "@[<v>%a@]" (Results.pp (Hexa.Store_sig.dict store) ~columns:q.projection) sols in
  check_bool "row count footer" true
    (String.length rendered > 0
    && String.sub rendered (String.length rendered - 8) 8 = "(4 rows)")

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "query"
    [
      ( "binding",
        [
          Alcotest.test_case "basic" `Quick test_binding_basic;
          Alcotest.test_case "decode" `Quick test_binding_decode;
        ] );
      ( "planner",
        [
          Alcotest.test_case "selectivity" `Quick test_planner_orders_by_selectivity;
          Alcotest.test_case "connected" `Quick test_planner_prefers_connected;
          Alcotest.test_case "unknown_constant" `Quick test_planner_unknown_constant;
          Alcotest.test_case "strategies" `Quick test_planner_strategies;
        ] );
      ( "exec_bgp",
        [
          Alcotest.test_case "single_pattern" `Quick test_exec_single_pattern;
          Alcotest.test_case "join" `Quick test_exec_join;
          Alcotest.test_case "repeated_var" `Quick test_exec_repeated_var;
          Alcotest.test_case "figure1_query1" `Quick test_exec_figure1_query1;
          Alcotest.test_case "figure1_query2" `Quick test_exec_figure1_query2;
          Alcotest.test_case "unknown_term" `Quick test_exec_unknown_term_empty;
          qt prop_bgp_matches_brute_force;
          qt prop_join_strategy_equivalence;
        ] );
      ( "exec_ops",
        [
          Alcotest.test_case "union_distinct" `Quick test_exec_union_distinct;
          Alcotest.test_case "filter" `Quick test_exec_filter;
          Alcotest.test_case "group_count" `Quick test_exec_group_count;
          Alcotest.test_case "group_empty" `Quick test_exec_group_empty_no_keys;
          Alcotest.test_case "order_slice" `Quick test_exec_order_slice;
          Alcotest.test_case "left_join" `Quick test_exec_left_join_direct;
          Alcotest.test_case "filter_errors" `Quick test_exec_filter_error_semantics;
          Alcotest.test_case "multi_key_order" `Quick test_exec_multi_key_order;
          Alcotest.test_case "ask" `Quick test_exec_ask;
        ] );
      ( "sparql",
        [
          Alcotest.test_case "select_basic" `Quick test_sparql_select_basic;
          Alcotest.test_case "select_star" `Quick test_sparql_select_star;
          Alcotest.test_case "prologue_sugar" `Quick test_sparql_prologue_and_sugar;
          Alcotest.test_case "union" `Quick test_sparql_union;
          Alcotest.test_case "filter" `Quick test_sparql_filter;
          Alcotest.test_case "count_group" `Quick test_sparql_count_group;
          Alcotest.test_case "count_distinct" `Quick test_sparql_count_distinct;
          Alcotest.test_case "optional" `Quick test_sparql_optional;
          Alcotest.test_case "construct" `Quick test_sparql_construct;
          Alcotest.test_case "values" `Quick test_sparql_values;
          Alcotest.test_case "ask" `Quick test_sparql_ask;
          Alcotest.test_case "errors" `Quick test_sparql_errors;
          Alcotest.test_case "error_line" `Quick test_sparql_error_line;
          Alcotest.test_case "illegal_iri" `Quick test_sparql_illegal_iri;
          qt prop_sparql_parse_total;
          qt prop_sparql_layout;
          qt prop_ppath_parse_total;
        ] );
      ( "path",
        [
          Alcotest.test_case "follow" `Quick test_path_follow;
          Alcotest.test_case "follow_from" `Quick test_path_follow_from;
        ] );
      ( "star",
        [
          Alcotest.test_case "bound" `Quick test_star_subjects_bound;
          Alcotest.test_case "edge_cases" `Quick test_star_edge_cases;
          Alcotest.test_case "of_bgp" `Quick test_star_of_bgp;
          qt prop_star_matches_exec;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "optional_in_place" `Quick test_optional_keeps_its_place;
          qt prop_algebra_matches_reference;
        ] );
      ("results", [ Alcotest.test_case "table" `Quick test_results_table ]);
    ]
