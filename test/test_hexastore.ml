(* Tests for the [hexa] core: patterns, pair vectors, the Hexastore's six
   indices with shared terminal lists, the COVP baselines, bulk loading,
   deletion, counting and the 5x space bound.  The reference model is a
   plain set of id-triples. *)

open Hexa
module Sorted_ivec = Vectors.Sorted_ivec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type id3 = Hexastore.id_triple = { s : int; p : int; o : int }

module T3 = struct
  type t = id3

  let compare (a : t) (b : t) = compare (a.s, a.p, a.o) (b.s, b.p, b.o)
end

module T3set = Set.Make (T3)

let t3 s p o = { s; p; o }

let sorted_triples seq = List.sort T3.compare (List.of_seq seq)

let triple_list =
  Alcotest.testable
    (Fmt.Dump.list (fun ppf (t : id3) -> Fmt.pf ppf "(%d,%d,%d)" t.s t.p t.o))
    (fun a b -> List.equal (fun x y -> T3.compare x y = 0) a b)

(* Every subset of positions bound, for a given triple id universe. *)
let all_patterns max_id =
  let opts = None :: List.init max_id (fun i -> Some i) in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun p -> List.map (fun o -> { Pattern.s; p; o }) opts)
        opts)
    opts

(* ------------------------------------------------------------------ *)
(* Pattern                                                             *)
(* ------------------------------------------------------------------ *)

let test_pattern_shapes () =
  let open Pattern in
  let cases =
    [
      (make ~s:1 ~p:2 ~o:3 (), All, 3);
      (make ~s:1 ~p:2 (), Sp, 2);
      (make ~s:1 ~o:3 (), So, 2);
      (make ~p:2 ~o:3 (), Po, 2);
      (make ~s:1 (), S, 1);
      (make ~p:2 (), P, 1);
      (make ~o:3 (), O, 1);
      (wildcard, None_bound, 0);
    ]
  in
  List.iter
    (fun (pat, expected_shape, expected_bound) ->
      check_bool "shape" true (shape pat = expected_shape);
      check_int "bound_count" expected_bound (bound_count pat))
    cases

let test_pattern_matches () =
  let tr = t3 1 2 3 in
  check_bool "wildcard" true (Pattern.matches Pattern.wildcard tr);
  check_bool "exact" true (Pattern.matches (Pattern.make ~s:1 ~p:2 ~o:3 ()) tr);
  check_bool "wrong s" false (Pattern.matches (Pattern.make ~s:9 ()) tr);
  check_bool "of_triple" true (Pattern.matches (Pattern.of_triple tr) tr)

(* ------------------------------------------------------------------ *)
(* Pair_vector                                                         *)
(* ------------------------------------------------------------------ *)

let test_pair_vector_basic () =
  let v = Pair_vector.create () in
  check_int "empty" 0 (Pair_vector.length v);
  let l5 = Pair_vector.get_or_insert v 5 (fun () -> Sorted_ivec.of_list [ 50 ]) in
  Pair_vector.bump_total v 1;
  let l1 = Pair_vector.get_or_insert v 1 (fun () -> Sorted_ivec.of_list [ 10 ]) in
  Pair_vector.bump_total v 1;
  let l9 = Pair_vector.get_or_insert v 9 (fun () -> Sorted_ivec.of_list [ 90 ]) in
  Pair_vector.bump_total v 1;
  check_int "three keys" 3 (Pair_vector.length v);
  check_int "sorted key order" 1 (Pair_vector.key_at v 0);
  check_int "sorted key order" 5 (Pair_vector.key_at v 1);
  check_int "sorted key order" 9 (Pair_vector.key_at v 2);
  (* get_or_insert on existing key returns the existing payload ref. *)
  let l5' = Pair_vector.get_or_insert v 5 (fun () -> Alcotest.fail "mk called for existing key") in
  check_bool "same ref" true (l5 == l5');
  check_bool "find" true (Pair_vector.find v 1 = Some l1);
  check_bool "find miss" true (Pair_vector.find v 7 = None);
  check_bool "payload_at" true (Pair_vector.payload_at v 2 == l9);
  Pair_vector.check_invariant v

let test_pair_vector_totals () =
  let v = Pair_vector.create () in
  ignore (Pair_vector.get_or_insert v 1 (fun () -> Sorted_ivec.of_list [ 10; 11 ]));
  Pair_vector.bump_total v 2;
  check_int "total" 2 (Pair_vector.total v);
  Pair_vector.check_invariant v;
  Pair_vector.bump_total v (-1);
  check_int "bumped down" 1 (Pair_vector.total v)

let test_pair_vector_remove () =
  let v = Pair_vector.create () in
  ignore (Pair_vector.get_or_insert v 1 (fun () -> Sorted_ivec.create ()));
  ignore (Pair_vector.get_or_insert v 2 (fun () -> Sorted_ivec.create ()));
  check_bool "remove" true (Pair_vector.remove v 1);
  check_bool "remove gone" false (Pair_vector.remove v 1);
  check_int "one left" 1 (Pair_vector.length v);
  check_int "survivor" 2 (Pair_vector.key_at v 0)

(* Every key search of a pair vector — [search_from] (with [from] below
   0 and past the end too), [index_geq], [key_at], [find] — against a
   sorted key list.  Key [k]'s payload is [[10 k]]. *)
let pair_vector_matches v keys probes =
  let a = Array.of_list keys in
  let n = Array.length a in
  let rec geq i x = if i >= n then n else if a.(i) >= x then i else geq (i + 1) x in
  Pair_vector.length v = n
  && List.for_all (fun i -> Pair_vector.key_at v i = a.(i)) (List.init n Fun.id)
  && Sorted_ivec.to_list (Pair_vector.key_vector v) = keys
  && List.for_all
       (fun (x, from) ->
         let from = from - 2 in
         Pair_vector.index_geq v x = geq 0 x
         && Pair_vector.search_from v ~from x = geq (max from 0) x
         && Option.map Sorted_ivec.to_list (Pair_vector.find v x)
            = if List.mem x keys then Some [ 10 * x ] else None)
       probes

let prop_pair_vector_search_oracle =
  QCheck.Test.make ~name:"pair vector searches = sorted-list oracle, build form and flat view"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 80) (pair bool (int_bound 60)))
        (list_of_size Gen.(int_bound 30) (pair (int_range (-2) 64) (int_bound 70))))
    (fun (ops, probes) ->
      let v = Pair_vector.create () in
      let model =
        List.fold_left
          (fun m (insert, k) ->
            if insert then begin
              if not (List.mem k m) then begin
                ignore (Pair_vector.get_or_insert v k (fun () -> Sorted_ivec.of_list [ 10 * k ]));
                Pair_vector.bump_total v 1
              end;
              List.sort_uniq compare (k :: m)
            end
            else begin
              if List.mem k m then Pair_vector.bump_total v (-1);
              ignore (Pair_vector.remove v k);
              List.filter (( <> ) k) m
            end)
          [] ops
      in
      Pair_vector.check_invariant v;
      let flat =
        let idx = Index.create () in
        List.iter (fun k -> Index.link idx ~first:0 ~second:k (Sorted_ivec.of_list [ 10 * k ])) model;
        Index.compress idx
      in
      pair_vector_matches v model probes
      &&
      match Index.find_vector flat 0 with
      | None -> model = []
      | Some view ->
          Sorted_ivec.is_compressed (Pair_vector.key_vector view)
          && pair_vector_matches view model probes)

(* ------------------------------------------------------------------ *)
(* Hexastore: basics                                                   *)
(* ------------------------------------------------------------------ *)

let test_hexa_add_mem () =
  let h = Hexastore.create () in
  check_bool "add" true (Hexastore.add_ids h (t3 1 2 3));
  check_bool "dup" false (Hexastore.add_ids h (t3 1 2 3));
  check_bool "mem" true (Hexastore.mem_ids h (t3 1 2 3));
  check_bool "not mem" false (Hexastore.mem_ids h (t3 1 2 4));
  check_int "size" 1 (Hexastore.size h);
  Hexastore.check_invariant h

let test_hexa_all_patterns_figure1 () =
  (* The Figure 1 sample: ids are small ints standing for the resources. *)
  let h = Hexastore.create () in
  let data = [ t3 1 10 100; t3 1 11 101; t3 2 10 100; t3 2 12 102; t3 3 11 101; t3 3 12 100 ] in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) data;
  let model = T3set.of_list data in
  List.iter
    (fun pat ->
      let expected = T3set.elements (T3set.filter (Pattern.matches pat) model) in
      let got = sorted_triples (Hexastore.lookup h pat) in
      Alcotest.check triple_list (Format.asprintf "lookup %a" Pattern.pp pat) expected got;
      check_int
        (Format.asprintf "count %a" Pattern.pp pat)
        (List.length expected) (Hexastore.count h pat))
    (all_patterns 15);
  Hexastore.check_invariant h

let test_hexa_accessors () =
  let h = Hexastore.create () in
  List.iter
    (fun tr -> ignore (Hexastore.add_ids h tr))
    [ t3 1 2 3; t3 1 2 4; t3 5 2 3; t3 1 6 3 ];
  (match Hexastore.objects_of_sp h ~s:1 ~p:2 with
  | Some l -> Alcotest.(check (list int)) "o_s(p)" [ 3; 4 ] (Sorted_ivec.to_list l)
  | None -> Alcotest.fail "missing o-list");
  (match Hexastore.properties_of_so h ~s:1 ~o:3 with
  | Some l -> Alcotest.(check (list int)) "p_s(o)" [ 2; 6 ] (Sorted_ivec.to_list l)
  | None -> Alcotest.fail "missing p-list");
  (match Hexastore.subjects_of_po h ~p:2 ~o:3 with
  | Some l -> Alcotest.(check (list int)) "s_p(o)" [ 1; 5 ] (Sorted_ivec.to_list l)
  | None -> Alcotest.fail "missing s-list");
  Alcotest.(check (list int)) "subjects" [ 1; 5 ] (Sorted_ivec.to_list (Hexastore.subjects h));
  Alcotest.(check (list int)) "properties" [ 2; 6 ] (Sorted_ivec.to_list (Hexastore.properties h));
  Alcotest.(check (list int)) "objects" [ 3; 4 ] (Sorted_ivec.to_list (Hexastore.objects h))

let test_hexa_sharing () =
  (* §4.1: twin orderings share terminal lists *physically*. *)
  let h = Hexastore.create () in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) [ t3 1 2 3; t3 1 2 4; t3 5 2 3 ];
  let l1 = Index.find_list (Hexastore.spo h) 1 2 in
  let l2 = Index.find_list (Hexastore.pso h) 2 1 in
  (match (l1, l2) with
  | Some a, Some b -> check_bool "spo/pso share o-lists" true (a == b)
  | _ -> Alcotest.fail "missing lists");
  let l3 = Index.find_list (Hexastore.sop h) 1 3 in
  let l4 = Index.find_list (Hexastore.osp h) 3 1 in
  (match (l3, l4) with
  | Some a, Some b -> check_bool "sop/osp share p-lists" true (a == b)
  | _ -> Alcotest.fail "missing lists");
  let l5 = Index.find_list (Hexastore.pos h) 2 3 in
  let l6 = Index.find_list (Hexastore.ops h) 3 2 in
  (match (l5, l6) with
  | Some a, Some b -> check_bool "pos/ops share s-lists" true (a == b)
  | _ -> Alcotest.fail "missing lists")

let test_hexa_remove () =
  let h = Hexastore.create () in
  let data = [ t3 1 2 3; t3 1 2 4; t3 5 2 3; t3 1 6 3 ] in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) data;
  check_bool "remove present" true (Hexastore.remove_ids h (t3 1 2 3));
  check_bool "remove again" false (Hexastore.remove_ids h (t3 1 2 3));
  check_bool "gone" false (Hexastore.mem_ids h (t3 1 2 3));
  check_bool "sibling kept" true (Hexastore.mem_ids h (t3 1 2 4));
  check_int "size" 3 (Hexastore.size h);
  Hexastore.check_invariant h;
  (* Remove everything: all headers must be pruned. *)
  List.iter (fun tr -> ignore (Hexastore.remove_ids h tr)) data;
  check_int "empty" 0 (Hexastore.size h);
  check_int "no subjects" 0 (Sorted_ivec.length (Hexastore.subjects h));
  check_int "no properties" 0 (Sorted_ivec.length (Hexastore.properties h));
  check_int "no objects" 0 (Sorted_ivec.length (Hexastore.objects h));
  Hexastore.check_invariant h

let test_hexa_remove_reinsert () =
  let h = Hexastore.create () in
  ignore (Hexastore.add_ids h (t3 1 2 3));
  ignore (Hexastore.remove_ids h (t3 1 2 3));
  check_bool "reinsert" true (Hexastore.add_ids h (t3 1 2 3));
  check_bool "mem" true (Hexastore.mem_ids h (t3 1 2 3));
  check_int "size" 1 (Hexastore.size h);
  Hexastore.check_invariant h

let test_hexa_bulk_equals_incremental () =
  let data =
    Array.init 200 (fun i -> t3 (i mod 7) (i mod 5) (i mod 11))
  in
  let h1 = Hexastore.create () in
  Array.iter (fun tr -> ignore (Hexastore.add_ids h1 tr)) data;
  let h2 = Hexastore.create () in
  let added = Hexastore.add_bulk_ids h2 data in
  check_int "same size" (Hexastore.size h1) (Hexastore.size h2);
  check_int "bulk reports new count" (Hexastore.size h1) added;
  Hexastore.check_invariant h2;
  Alcotest.check triple_list "same contents"
    (sorted_triples (Hexastore.lookup h1 Pattern.wildcard))
    (sorted_triples (Hexastore.lookup h2 Pattern.wildcard));
  (* Bulk into a non-empty store deduplicates against existing content. *)
  check_int "re-bulk adds nothing" 0 (Hexastore.add_bulk_ids h2 data)

let test_hexa_term_level () =
  let open Rdf in
  let tr a b c =
    Triple.make (Term.iri ("http://x/" ^ a)) (Term.iri ("http://x/" ^ b))
      (Term.iri ("http://x/" ^ c))
  in
  let h = Hexastore.of_triples [ tr "s1" "p1" "o1"; tr "s1" "p2" "o2"; tr "s2" "p1" "o1" ] in
  check_int "size" 3 (Hexastore.size h);
  check_bool "mem" true (Hexastore.mem h (tr "s1" "p1" "o1"));
  check_bool "not mem" false (Hexastore.mem h (tr "s1" "p1" "o9"));
  check_int "find by s" 2
    (Seq.length (Hexastore.find h ~s:(Term.iri "http://x/s1") ()));
  check_int "find unknown term is empty" 0
    (Seq.length (Hexastore.find h ~s:(Term.iri "http://x/unknown") ()));
  check_int "count_terms" 2 (Hexastore.count_terms h ~p:(Term.iri "http://x/p1") ());
  check_bool "remove" true (Hexastore.remove h (tr "s1" "p1" "o1"));
  check_int "size after remove" 2 (Hexastore.size h);
  check_int "to_triples" 2 (List.length (Hexastore.to_triples h))

let test_hexa_space_bound () =
  (* Worst case for space: every resource id appears exactly once. *)
  let h = Hexastore.create () in
  for i = 0 to 99 do
    ignore (Hexastore.add_ids h (t3 (3 * i) ((3 * i) + 1) ((3 * i) + 2)))
  done;
  let epr = Stats.entries_per_triple h in
  check_bool "worst case reaches 5" true (epr = 5.0);
  (* Heavy sharing: far below 5. *)
  let h2 = Hexastore.create () in
  for i = 0 to 99 do
    ignore (Hexastore.add_ids h2 (t3 1 2 i))
  done;
  (* Headers/vectors amortise across the 100 triples: ~3.02 entries per
     occurrence here versus the 5.0 worst case above. *)
  check_bool "sharing reduces entries" true (Stats.entries_per_triple h2 < 3.5)

let test_hexa_soak () =
  (* A long randomized add/remove session against the set model, with a
     full structural check at the end (not per step — O(n) each). *)
  let rng = ref 123456789 in
  let next () =
    rng := (!rng * 1103515245) + 12345 land max_int;
    abs !rng
  in
  let h = Hexastore.create () in
  let model = ref T3set.empty in
  for _ = 1 to 20_000 do
    let tr = t3 (next () mod 40) (next () mod 12) (next () mod 50) in
    if next () mod 3 = 0 then begin
      let removed = Hexastore.remove_ids h tr in
      check_bool "remove agrees with model" (T3set.mem tr !model) removed;
      model := T3set.remove tr !model
    end
    else begin
      let added = Hexastore.add_ids h tr in
      check_bool "add agrees with model" (not (T3set.mem tr !model)) added;
      model := T3set.add tr !model
    end
  done;
  check_int "final size" (T3set.cardinal !model) (Hexastore.size h);
  Hexastore.check_invariant h;
  Alcotest.check triple_list "final contents"
    (T3set.elements !model)
    (sorted_triples (Hexastore.lookup h Pattern.wildcard))

let test_stats () =
  let h = Hexastore.create () in
  List.iter
    (fun tr -> ignore (Hexastore.add_ids h tr))
    [ t3 1 2 3; t3 1 2 4; t3 5 2 3; t3 1 6 3 ];
  let s = Stats.summary h in
  check_int "triples" 4 s.triples;
  check_int "subjects" 2 s.distinct_subjects;
  check_int "properties" 2 s.distinct_properties;
  check_int "objects" 2 s.distinct_objects;
  check_bool "memory positive" true (s.memory_words > 0);
  (match Stats.property_histogram h with
  | (p, n) :: _ ->
      check_int "top property" 2 p;
      check_int "top count" 3 n
  | [] -> Alcotest.fail "empty histogram");
  check_bool "selectivity p=2" true (abs_float (Stats.selectivity h (Pattern.make ~p:2 ()) -. 0.75) < 1e-9)

(* ------------------------------------------------------------------ *)
(* COVP baselines                                                      *)
(* ------------------------------------------------------------------ *)

let covp_kinds = [ (Covp.Covp1, "covp1"); (Covp.Covp2, "covp2") ]

let test_covp_basics () =
  List.iter
    (fun (kind, label) ->
      let c = Covp.create kind in
      check_bool (label ^ " add") true (Covp.add_ids c (t3 1 2 3));
      check_bool (label ^ " dup") false (Covp.add_ids c (t3 1 2 3));
      check_bool (label ^ " mem") true (Covp.mem_ids c (t3 1 2 3));
      check_int (label ^ " size") 1 (Covp.size c);
      check_bool (label ^ " remove") true (Covp.remove_ids c (t3 1 2 3));
      check_int (label ^ " empty") 0 (Covp.size c);
      Covp.check_invariant c)
    covp_kinds

let test_covp_matches_hexastore () =
  (* All three stores must give identical answers on every pattern. *)
  let data = List.init 300 (fun i -> t3 (i mod 9) (i mod 4) (i mod 13)) in
  let h = Hexastore.create () in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) data;
  List.iter
    (fun (kind, label) ->
      let c = Covp.create kind in
      List.iter (fun tr -> ignore (Covp.add_ids c tr)) data;
      check_int (label ^ " size") (Hexastore.size h) (Covp.size c);
      List.iter
        (fun pat ->
          Alcotest.check triple_list
            (Format.asprintf "%s lookup %a" label Pattern.pp pat)
            (sorted_triples (Hexastore.lookup h pat))
            (sorted_triples (Covp.lookup c pat));
          check_int
            (Format.asprintf "%s count %a" label Pattern.pp pat)
            (Hexastore.count h pat) (Covp.count c pat))
        (all_patterns 14))
    covp_kinds

let test_covp_bulk () =
  let data = Array.init 200 (fun i -> t3 (i mod 7) (i mod 5) (i mod 11)) in
  List.iter
    (fun (kind, label) ->
      let c1 = Covp.create kind in
      Array.iter (fun tr -> ignore (Covp.add_ids c1 tr)) data;
      let c2 = Covp.create kind in
      let added = Covp.add_bulk_ids c2 data in
      check_int (label ^ " bulk size") (Covp.size c1) (Covp.size c2);
      check_int (label ^ " bulk count") (Covp.size c1) added;
      Covp.check_invariant c2;
      Alcotest.check triple_list (label ^ " same contents")
        (sorted_triples (Covp.lookup c1 Pattern.wildcard))
        (sorted_triples (Covp.lookup c2 Pattern.wildcard)))
    covp_kinds

let test_covp_restriction () =
  let c = Covp.create Covp.Covp2 in
  List.iter (fun tr -> ignore (Covp.add_ids c tr)) [ t3 1 2 3; t3 1 4 3; t3 1 5 6 ];
  check_int "unrestricted S scan" 3 (Covp.count c (Pattern.make ~s:1 ()));
  Covp.restrict_properties c (Some [ 2; 5 ]);
  check_int "restricted S scan" 2 (Covp.count c (Pattern.make ~s:1 ()));
  check_int "restricted O scan" 1 (Covp.count c (Pattern.make ~o:3 ()));
  (* Property-bound lookups ignore the restriction. *)
  check_int "bound-p lookup unaffected" 1 (Covp.count c (Pattern.make ~p:4 ()));
  Covp.restrict_properties c None;
  check_int "cleared" 3 (Covp.count c (Pattern.make ~s:1 ()))

let test_covp1_po_scan () =
  (* Covp1's subjects_of_po must fall back to scanning the table. *)
  let c = Covp.create Covp.Covp1 in
  List.iter (fun tr -> ignore (Covp.add_ids c tr)) [ t3 1 2 3; t3 5 2 3; t3 7 2 4 ];
  (match Covp.subjects_of_po c ~p:2 ~o:3 with
  | Some l -> Alcotest.(check (list int)) "scan result" [ 1; 5 ] (Sorted_ivec.to_list l)
  | None -> Alcotest.fail "missing");
  check_bool "no match" true (Covp.subjects_of_po c ~p:2 ~o:9 = None);
  check_bool "covp1 has no object_vector" true (Covp.object_vector c 2 = None);
  let c2 = Covp.create Covp.Covp2 in
  ignore (Covp.add_ids c2 (t3 1 2 3));
  check_bool "covp2 has object_vector" true (Covp.object_vector c2 2 <> None)

(* ------------------------------------------------------------------ *)
(* Store_sig boxing                                                    *)
(* ------------------------------------------------------------------ *)

let test_store_sig () =
  let h = Hexastore.create () in
  ignore (Hexastore.add_ids h (t3 1 2 3));
  let b = Store_sig.box_hexastore h in
  Alcotest.(check string) "name" "Hexastore" (Store_sig.name b);
  check_int "size" 1 (Store_sig.size b);
  check_int "lookup" 1 (Seq.length (Store_sig.lookup b Pattern.wildcard));
  check_int "count" 1 (Store_sig.count b (Pattern.make ~s:1 ()));
  let c = Covp.create Covp.Covp1 in
  Alcotest.(check string) "covp1 name" "COVP1" (Store_sig.name (Store_sig.box_covp c));
  let c2 = Covp.create Covp.Covp2 in
  Alcotest.(check string) "covp2 name" "COVP2" (Store_sig.name (Store_sig.box_covp c2))

(* ------------------------------------------------------------------ *)
(* Property tests: model-based across all three stores                 *)
(* ------------------------------------------------------------------ *)

let gen_triple = QCheck.Gen.(map3 t3 (int_bound 8) (int_bound 5) (int_bound 10))

let gen_ops =
  (* true = add, false = remove *)
  QCheck.Gen.(list_size (int_bound 120) (pair bool gen_triple))

let print_ops ops =
  String.concat "; "
    (List.map (fun (add, (tr : id3)) ->
         Printf.sprintf "%s(%d,%d,%d)" (if add then "+" else "-") tr.s tr.p tr.o)
        ops)

let arbitrary_ops = QCheck.make ~print:print_ops gen_ops

let model_apply ops =
  List.fold_left
    (fun m (add, tr) -> if add then T3set.add tr m else T3set.remove tr m)
    T3set.empty ops

let prop_hexa_model =
  QCheck.Test.make ~name:"hexastore = set model under add/remove, all patterns" ~count:200
    arbitrary_ops
    (fun ops ->
      let h = Hexastore.create () in
      List.iter
        (fun (add, tr) ->
          if add then ignore (Hexastore.add_ids h tr) else ignore (Hexastore.remove_ids h tr))
        ops;
      let model = model_apply ops in
      Hexastore.check_invariant h;
      Hexastore.size h = T3set.cardinal model
      && List.for_all
           (fun pat ->
             let expected = T3set.elements (T3set.filter (Pattern.matches pat) model) in
             sorted_triples (Hexastore.lookup h pat) = expected
             && Hexastore.count h pat = List.length expected)
           (all_patterns 11))

let prop_covp_equiv kind name =
  QCheck.Test.make ~name ~count:150 arbitrary_ops (fun ops ->
      let h = Hexastore.create () and c = Covp.create kind in
      List.iter
        (fun (add, tr) ->
          if add then begin
            ignore (Hexastore.add_ids h tr);
            ignore (Covp.add_ids c tr)
          end
          else begin
            ignore (Hexastore.remove_ids h tr);
            ignore (Covp.remove_ids c tr)
          end)
        ops;
      Covp.check_invariant c;
      Covp.size c = Hexastore.size h
      && List.for_all
           (fun pat ->
             sorted_triples (Covp.lookup c pat) = sorted_triples (Hexastore.lookup h pat)
             && Covp.count c pat = Hexastore.count h pat)
           (all_patterns 11))

let prop_covp1_equiv = prop_covp_equiv Covp.Covp1 "covp1 = hexastore on all patterns"
let prop_covp2_equiv = prop_covp_equiv Covp.Covp2 "covp2 = hexastore on all patterns"

let prop_bulk_equiv =
  QCheck.Test.make ~name:"bulk load = incremental load" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_bound 150) gen_triple))
    (fun triples ->
      let h1 = Hexastore.create () in
      List.iter (fun tr -> ignore (Hexastore.add_ids h1 tr)) triples;
      let h2 = Hexastore.create () in
      ignore (Hexastore.add_bulk_ids h2 (Array.of_list triples));
      Hexastore.check_invariant h2;
      sorted_triples (Hexastore.lookup h1 Pattern.wildcard)
      = sorted_triples (Hexastore.lookup h2 Pattern.wildcard))

(* Bulk passes defer headers that arrive below an index's largest one
   and merge them in once at the end ([Index.seal]).  Base ids are even
   and in [10, 30]; batch ids span [0, 40] and the batch always carries
   one all-below, one in-between (odd) and one all-above triple, so it
   brings headers on every side of the base's.  It also re-adds the
   triples removed from the base, whose headers the removal pruned.  The
   bulk-loaded store must match the same triples added one by one. *)
let gen_merge_case =
  QCheck.Gen.(
    let even = map (fun k -> 10 + (2 * k)) (int_bound 10) in
    let wide = int_bound 40 in
    triple
      (list_size (int_range 1 60) (pair bool (map3 t3 even even even)))
      (list_size (int_bound 60) (map3 t3 wide wide wide))
      (map (List.sort_uniq Ordering.compare) (list_size (int_range 1 6) (oneofl Ordering.all))))

let print_merge_case (base, extra, ords) =
  let tr (t : id3) = Printf.sprintf "(%d,%d,%d)" t.s t.p t.o in
  Printf.sprintf "base=[%s] extra=[%s] orderings=[%s]"
    (String.concat "; " (List.map (fun (drop, t) -> (if drop then "-" else "") ^ tr t) base))
    (String.concat "; " (List.map tr extra))
    (String.concat "; " (List.map Ordering.name ords))

(* [remove = None] (the partial store has no delete): the removed
   triples are simply left out of the base, so their headers are absent
   rather than pruned. *)
let prop_bulk_merge name ~make ~add ~remove ~bulk ~indices ~size ~check =
  QCheck.Test.make ~name ~count:200 (QCheck.make ~print:print_merge_case gen_merge_case)
    (fun (base, extra, ords) ->
      let removed = List.filter_map (fun (drop, t) -> if drop then Some t else None) base in
      let batch = t3 1 1 1 :: t3 21 21 21 :: t3 39 39 39 :: (removed @ extra) in
      let prepare () =
        let t = make ords in
        List.iter
          (fun (drop, tr) -> if not (drop && Option.is_none remove) then ignore (add t tr))
          base;
        Option.iter (fun rm -> List.iter (fun tr -> ignore (rm t tr)) removed) remove;
        t
      in
      let bulk_t = prepare () and point_t = prepare () in
      ignore (bulk bulk_t (Array.of_list batch));
      List.iter (fun tr -> ignore (add point_t tr)) batch;
      check bulk_t;
      let headers t =
        List.map (fun (ord, idx) -> (ord, Sorted_ivec.to_list (Index.headers_view idx))) (indices t)
      in
      List.for_all (fun (_, idx) -> Index.pending_headers idx = 0) (indices bulk_t)
      && size bulk_t = size point_t
      && headers bulk_t = headers point_t)

let hexa_indices h =
  Hexastore.
    [
      (Ordering.Spo, spo h);
      (Ordering.Sop, sop h);
      (Ordering.Pso, pso h);
      (Ordering.Pos, pos h);
      (Ordering.Osp, osp h);
      (Ordering.Ops, ops h);
    ]

let prop_bulk_merge_hexa =
  prop_bulk_merge "bulk header merge = point inserts (hexastore)"
    ~make:(fun _ -> Hexastore.create ())
    ~add:Hexastore.add_ids ~remove:(Some Hexastore.remove_ids) ~bulk:Hexastore.add_bulk_ids
    ~indices:hexa_indices ~size:Hexastore.size ~check:Hexastore.check_invariant

let prop_bulk_merge_covp =
  prop_bulk_merge "bulk header merge = point inserts (covp2)"
    ~make:(fun _ -> Covp.create Covp.Covp2)
    ~add:Covp.add_ids ~remove:(Some Covp.remove_ids) ~bulk:Covp.add_bulk_ids
    ~indices:Covp.indices ~size:Covp.size ~check:Covp.check_invariant

let prop_bulk_merge_partial =
  prop_bulk_merge "bulk header merge = point inserts (partial)"
    ~make:(fun ords -> Partial.create ~orderings:ords ())
    ~add:Partial.add_ids ~remove:None ~bulk:Partial.add_bulk_ids ~indices:Partial.indices
    ~size:Partial.size ~check:Partial.check_invariant

let prop_space_bound =
  QCheck.Test.make ~name:"entries per resource occurrence never exceed 5" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_bound 150) gen_triple))
    (fun triples ->
      let h = Hexastore.create () in
      List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) triples;
      Stats.entries_per_triple h <= 5.0 +. 1e-9)

let prop_lookup_sorted =
  QCheck.Test.make ~name:"single-header lookups stream in sorted order" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 100) gen_triple))
    (fun triples ->
      let h = Hexastore.create () in
      List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) triples;
      let ascending proj seq =
        let l = List.map proj (List.of_seq seq) in
        List.sort compare l = l
      in
      (* o-lists for (s,p) arrive sorted; s-lists for (p,o) arrive sorted. *)
      List.for_all
        (fun (tr : id3) ->
          ascending (fun (x : id3) -> x.o) (Hexastore.lookup h (Pattern.make ~s:tr.s ~p:tr.p ()))
          && ascending (fun (x : id3) -> x.s) (Hexastore.lookup h (Pattern.make ~p:tr.p ~o:tr.o ()))
          && ascending (fun (x : id3) -> x.p) (Hexastore.lookup h (Pattern.make ~s:tr.s ~o:tr.o ())))
        triples)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "hexastore"
    [
      ( "pattern",
        [
          Alcotest.test_case "shapes" `Quick test_pattern_shapes;
          Alcotest.test_case "matches" `Quick test_pattern_matches;
        ] );
      ( "pair_vector",
        [
          Alcotest.test_case "basic" `Quick test_pair_vector_basic;
          Alcotest.test_case "totals" `Quick test_pair_vector_totals;
          Alcotest.test_case "remove" `Quick test_pair_vector_remove;
          qt prop_pair_vector_search_oracle;
        ] );
      ( "hexastore",
        [
          Alcotest.test_case "add_mem" `Quick test_hexa_add_mem;
          Alcotest.test_case "all_patterns" `Quick test_hexa_all_patterns_figure1;
          Alcotest.test_case "accessors" `Quick test_hexa_accessors;
          Alcotest.test_case "sharing" `Quick test_hexa_sharing;
          Alcotest.test_case "remove" `Quick test_hexa_remove;
          Alcotest.test_case "remove_reinsert" `Quick test_hexa_remove_reinsert;
          Alcotest.test_case "bulk" `Quick test_hexa_bulk_equals_incremental;
          Alcotest.test_case "term_level" `Quick test_hexa_term_level;
          Alcotest.test_case "space_bound" `Quick test_hexa_space_bound;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "soak" `Slow test_hexa_soak;
        ] );
      ( "covp",
        [
          Alcotest.test_case "basics" `Quick test_covp_basics;
          Alcotest.test_case "matches_hexastore" `Quick test_covp_matches_hexastore;
          Alcotest.test_case "bulk" `Quick test_covp_bulk;
          Alcotest.test_case "restriction" `Quick test_covp_restriction;
          Alcotest.test_case "covp1_po_scan" `Quick test_covp1_po_scan;
        ] );
      ("store_sig", [ Alcotest.test_case "boxing" `Quick test_store_sig ]);
      ( "properties",
        [
          qt prop_hexa_model;
          qt prop_covp1_equiv;
          qt prop_covp2_equiv;
          qt prop_bulk_equiv;
          qt prop_bulk_merge_hexa;
          qt prop_bulk_merge_covp;
          qt prop_bulk_merge_partial;
          qt prop_space_bound;
          qt prop_lookup_sorted;
        ] );
    ]
