(* Index selection for a workload (§6's future-work direction).

   §6: "some indices may not contribute to query efficiency based on a
   given workload.  For example, the ops index has been seldom used in
   our experiments."  This example records the pattern shapes an
   application actually issues, asks the advisor which of the six
   orderings they need, builds a partial Hexastore with just those, and
   compares memory and query behaviour with the full sextuple store.

   Run with:  dune exec examples/index_advisor.exe *)

open Workloads

let () =
  let cfg = Lubm.config ~universities:3 ~departments_per_university:3 ~seed:42 () in
  let triples = Lubm.generate cfg in
  let dict = Dict.Term_dict.create () in
  let encoded = Array.of_list (List.map (Dict.Term_dict.encode_triple dict) triples) in

  (* The application's workload: the kind of patterns the LUBM queries
     issue — object-bound exploration, subject lookups, some property
     scans.  Tallied from a (simulated) query log. *)
  let workload =
    [
      (Hexa.Pattern.O, 400);   (* "everything related to X" — LQ1/LQ2 *)
      (Hexa.Pattern.S, 250);   (* "everything about Y" — LQ3 *)
      (Hexa.Pattern.Sp, 120);  (* follow a known property *)
      (Hexa.Pattern.Po, 100);  (* who has degree from U? *)
      (Hexa.Pattern.P, 30);    (* full property scans *)
    ]
  in
  let r = Hexa.Advisor.recommend workload in
  Format.printf "Workload: O=400 S=250 Sp=120 Po=100 P=30 patterns@.";
  Format.printf "Advisor:  %a@.@." Hexa.Advisor.pp_recommendation r;

  (* Build both stores. *)
  let full = Hexa.Hexastore.create ~dict () in
  ignore (Hexa.Hexastore.add_bulk_ids full encoded);
  let partial = Hexa.Partial.create ~dict ~orderings:r.keep () in
  ignore (Hexa.Partial.add_bulk_ids partial encoded);

  let mb w = float_of_int (w * 8) /. (1024. *. 1024.) in
  Format.printf "Full Hexastore:  %7.2f MB (6 orderings)@."
    (mb (Hexa.Hexastore.memory_words full));
  Format.printf "Partial store:   %7.2f MB (%d orderings)  — %.0f%% saved@.@."
    (mb (Hexa.Partial.memory_words partial))
    (List.length r.keep)
    (100. *. Hexa.Advisor.savings_fraction full r.keep);

  (* Queries the workload contains stay native and fast; a shape whose
     ordering was dropped still answers, through the best kept index. *)
  let course10 = Option.get (Dict.Term_dict.find_term dict (Rdf.Term.iri Lubm.course10)) in
  (* Every match is enumerated through each store's push read, and
     counted. *)
  let matches iter store pat =
    let n = ref 0 in
    iter store pat (fun _ _ _ -> incr n);
    !n
  in
  let probe name pat =
    let full_s, n_full = Harness.time ~repeats:3 (fun () -> matches Hexa.Hexastore.iter full pat) in
    let part_s, n_part =
      Harness.time ~repeats:3 (fun () -> matches Hexa.Partial.iter partial pat)
    in
    assert (n_full = n_part);
    Format.printf "%-34s %5d rows   full %9.1f us   partial %9.1f us%s@." name n_full
      (full_s *. 1e6) (part_s *. 1e6)
      (if Hexa.Partial.is_native partial (Hexa.Pattern.shape pat) then "  (native)"
       else "  (fallback)")
  in
  probe "everything about Course10 (O)" (Hexa.Pattern.make ~o:course10 ());
  let ap10 = Option.get (Dict.Term_dict.find_term dict (Rdf.Term.iri Lubm.associate_professor10)) in
  probe "everything about AP10 (S)" (Hexa.Pattern.make ~s:ap10 ());
  let takes = Option.get (Dict.Term_dict.find_term dict (Rdf.Term.iri (Lubm.ub "takesCourse"))) in
  probe "AP10's takesCourse objects (Sp)" (Hexa.Pattern.make ~s:ap10 ~p:takes ());
  (* So was NOT in the workload: its sop ordering is dropped, but the
     lookup still answers through spo. *)
  probe "AP10 related to Course10? (So)" (Hexa.Pattern.make ~s:ap10 ~o:course10 ());
  Format.printf "@.All answers identical on both stores; only cost differs.@."
