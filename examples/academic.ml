(* Academic-network scenario: the LUBM domain the paper's §5.1.2 models.

   Generates a small university data set, loads it into a Hexastore, and
   answers registrar-style questions through the SPARQL engine — ending
   with the kind of object-bound, property-unbound queries (§3) that the
   sextuple indexing exists for, timed against the COVP1 baseline.

   Run with:  dune exec examples/academic.exe *)

open Workloads

let () =
  let cfg = Lubm.config ~universities:2 ~departments_per_university:2 ~seed:42 () in
  let triples = Lubm.generate cfg in
  let store = Hexa.Hexastore.of_triples triples in
  Format.printf "Generated %d LUBM-like triples (%d universities).@.@."
    (Hexa.Hexastore.size store) cfg.universities;

  let ns = Rdf.Namespace.default () in
  let boxed = Hexa.Store_sig.box_hexastore store in
  let dict = Hexa.Hexastore.dict store in
  let run title text =
    Format.printf "--- %s@." title;
    let q = Query.Sparql.parse ~namespaces:ns text in
    let seconds, solutions =
      Harness.time ~warmup:1 ~repeats:3 (fun () -> Query.Exec.run boxed q.algebra)
    in
    Format.printf "@[<v>%a@]@." (Query.Results.pp dict ~columns:q.projection) solutions;
    Format.printf "(%.3f ms)@.@." (seconds *. 1000.)
  in

  run "Professors heading a department"
    {| SELECT ?prof ?dept WHERE { ?prof ub:headOf ?dept } ORDER BY ?prof LIMIT 4 |};

  run "Course load of AssociateProfessor10"
    (Printf.sprintf
       {| SELECT ?course WHERE { <%s> ub:teacherOf ?course } |}
       Lubm.associate_professor10);

  run "Students per course of AssociateProfessor10 (grouped)"
    (Printf.sprintf
       {| SELECT ?course (COUNT(?student) AS ?n)
          WHERE { <%s> ub:teacherOf ?course . ?student ub:takesCourse ?course }
          GROUP BY ?course ORDER BY DESC(?n) |}
       Lubm.associate_professor10);

  run "Advisor chains ending at a full professor"
    {| SELECT ?student ?advisor
       WHERE { ?student ub:advisor ?advisor . ?advisor a ub:FullProfessor }
       LIMIT 5 |};

  run "People with a doctorate from University0 who also teach"
    (Printf.sprintf
       {| SELECT DISTINCT ?person WHERE { ?person ub:doctoralDegreeFrom <%s> .
                                          ?person ub:teacherOf ?c } LIMIT 5 |}
       (Lubm.university 0));

  (* The paper's motivating query shape: object-bound, property-unbound.
     Compare the Hexastore's osp access with COVP1's scan over every
     property table (LQ2's plans, §5.2.2). *)
  Format.printf "--- Everything related to University0, Hexastore vs COVP1@.";
  let covp1 = Stores.create ~dict Stores.K_covp1 in
  ignore (Stores.load covp1 (Array.of_list (Hexa.Hexastore.fold List.cons store [])));
  (match Queries_lubm.resolve_ids dict with
  | Some ids ->
      let hexa_s, answers =
        Harness.time ~repeats:5 (fun () -> Queries_lubm.lq2 (Stores.Hexa store) ids)
      in
      let covp_s, _ = Harness.time ~repeats:5 (fun () -> Queries_lubm.lq2 covp1 ids) in
      Format.printf "%d related resources.@." (List.length answers);
      Format.printf "Hexastore (one osp lookup):        %8.3f ms@." (hexa_s *. 1000.);
      Format.printf "COVP1 (scan all property tables):  %8.3f ms  (%.0fx)@." (covp_s *. 1000.)
        (covp_s /. Float.max hexa_s 1e-9)
  | None -> Format.printf "vocabulary not resolved@.")
