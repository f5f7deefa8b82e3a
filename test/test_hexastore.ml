(* Tests for the [hexa] core: patterns, pair vectors, the Hexastore's six
   indices with shared terminal lists, the COVP baselines (partial stores
   keeping pso, and pso + pos), bulk loading, deletion, counting and the
   5x space bound.  The reference model is a plain set of id-triples. *)

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

(* A push read's triples ([Hexastore.iter h pat] and the like), sorted. *)
let sorted_triples read = List.sort T3.compare (Check.Model.pushed read)

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

(* A pair vector is a view of an index's columns: keys [ks] under one
   header, key [k]'s list [[10 k; 10 k + 1]]. *)
let view_of ?(kind = Sorted_ivec.Raw) ks =
  let keys = Array.of_list (List.concat_map (fun k -> [ k; k ]) ks) in
  let idx, _ =
    Index.of_sorted_columns ~kind ~firsts:(Array.map (fun _ -> 0) keys) ~seconds:keys
      ~thirds:(Array.mapi (fun i k -> (10 * k) + (i mod 2)) keys)
      ()
  in
  Index.find_vector idx 0

let test_pair_vector_basic () =
  let v = Option.get (view_of [ 1; 5; 9 ]) in
  check_int "three keys" 3 (Pair_vector.length v);
  check_int "sorted key order" 1 (Pair_vector.key_at v 0);
  check_int "sorted key order" 5 (Pair_vector.key_at v 1);
  check_int "sorted key order" 9 (Pair_vector.key_at v 2);
  check_bool "find" true
    (Option.map Sorted_ivec.to_list (Pair_vector.find v 1) = Some [ 10; 11 ]);
  check_bool "find miss" true (Pair_vector.find v 7 = None);
  Alcotest.(check (list int)) "payload_at" [ 90; 91 ] (Sorted_ivec.to_list (Pair_vector.payload_at v 2));
  Pair_vector.check_invariant v;
  check_bool "no header, no view" true (view_of [] = None)

let test_pair_vector_totals () =
  let v = Option.get (view_of [ 1; 2 ]) in
  check_int "total" 4 (Pair_vector.total v);
  Pair_vector.check_invariant v

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
  QCheck.Test.make ~name:"pair vector searches = sorted-list oracle, raw and packed views"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 80) (int_bound 60))
        (list_of_size Gen.(int_bound 30) (pair (int_range (-2) 64) (int_bound 70))))
    (fun (keys, probes) ->
      let keys = List.sort_uniq compare keys in
      List.for_all
        (fun kind ->
          let flat, _ =
            let keys = Array.of_list keys in
            Index.of_sorted_columns ~kind
              ~firsts:(Array.map (fun _ -> 0) keys)
              ~seconds:keys ~thirds:(Array.map (fun k -> 10 * k) keys) ()
          in
          match Index.find_vector flat 0 with
          | None -> keys = []
          | Some view ->
              Sorted_ivec.kind_of (Pair_vector.key_vector view) = kind
              && pair_vector_matches view keys probes)
        [ Sorted_ivec.Raw; Sorted_ivec.Packed ])

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
      let got = sorted_triples (Hexastore.iter h pat) in
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
  (* §4.1: twin orderings share terminal lists *physically*: the same
     window of the owner's stream ([Sorted_ivec.shares]; each lookup
     hands out a fresh slice header). *)
  let h = Hexastore.create () in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr)) [ t3 1 2 3; t3 1 2 4; t3 5 2 3 ];
  let l1 = Index.find_list (Hexastore.spo h) 1 2 in
  let l2 = Index.find_list (Hexastore.pso h) 2 1 in
  (match (l1, l2) with
  | Some a, Some b -> check_bool "spo/pso share o-lists" true (Sorted_ivec.shares a b)
  | _ -> Alcotest.fail "missing lists");
  let l3 = Index.find_list (Hexastore.sop h) 1 3 in
  let l4 = Index.find_list (Hexastore.osp h) 3 1 in
  (match (l3, l4) with
  | Some a, Some b -> check_bool "sop/osp share p-lists" true (Sorted_ivec.shares a b)
  | _ -> Alcotest.fail "missing lists");
  let l5 = Index.find_list (Hexastore.pos h) 2 3 in
  let l6 = Index.find_list (Hexastore.ops h) 3 2 in
  (match (l5, l6) with
  | Some a, Some b -> check_bool "pos/ops share s-lists" true (Sorted_ivec.shares a b)
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
    (sorted_triples (Hexastore.iter h1 Pattern.wildcard))
    (sorted_triples (Hexastore.iter h2 Pattern.wildcard));
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
    (sorted_triples (Hexastore.iter h Pattern.wildcard))

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
(* COVP baselines: the partial stores keeping pso, and pso + pos       *)
(* ------------------------------------------------------------------ *)

let covp_configs = [ ([ Ordering.Pso ], "covp1"); ([ Ordering.Pso; Ordering.Pos ], "covp2") ]

(* A COVP store and [Check.Model] agree on every read of every pattern
   over ids below [max_id], and on size, membership and invariants. *)
let agrees_with_model label c m max_id =
  Partial.check_invariant c;
  check_int (label ^ " size") (Check.Model.size m) (Partial.size c);
  List.iter
    (fun pat ->
      let want = Check.Model.lookup m pat in
      Alcotest.check triple_list
        (Format.asprintf "%s iter %a" label Pattern.pp pat)
        want (sorted_triples (Partial.iter c pat));
      check_int (Format.asprintf "%s count %a" label Pattern.pp pat) (List.length want) (Partial.count c pat))
    (all_patterns max_id)

let test_covp_basics () =
  List.iter
    (fun (orderings, label) ->
      let c = Partial.create ~orderings () and m = Check.Model.create () in
      check_bool (label ^ " add") true (Partial.add_ids c (t3 1 2 3));
      check_bool (label ^ " dup") false (Partial.add_ids c (t3 1 2 3));
      check_bool (label ^ " add other") true (Partial.add_ids c (t3 1 4 3));
      check_bool (label ^ " mem") true (Partial.mem_ids c (t3 1 2 3));
      check_bool (label ^ " remove") true (Partial.remove_ids c (t3 1 2 3));
      check_bool (label ^ " remove absent") false (Partial.remove_ids c (t3 1 2 3));
      check_bool (label ^ " not mem") false (Partial.mem_ids c (t3 1 2 3));
      ignore (Check.Model.add m (t3 1 4 3));
      agrees_with_model label c m 6;
      check_bool (label ^ " remove last") true (Partial.remove_ids c (t3 1 4 3));
      agrees_with_model (label ^ " emptied") c (Check.Model.create ()) 6)
    covp_configs

let test_covp_matches_hexastore () =
  (* COVP1, COVP2, the Hexastore and the model give identical answers
     on every pattern. *)
  let data = List.init 300 (fun i -> t3 (i mod 9) (i mod 4) (i mod 13)) in
  let h = Hexastore.create () and m = Check.Model.create () in
  List.iter (fun tr -> ignore (Hexastore.add_ids h tr); ignore (Check.Model.add m tr)) data;
  List.iter
    (fun (orderings, label) ->
      let c = Partial.create ~orderings () in
      List.iter (fun tr -> ignore (Partial.add_ids c tr)) data;
      agrees_with_model label c m 14;
      List.iter
        (fun pat ->
          Alcotest.check triple_list
            (Format.asprintf "%s = hexastore %a" label Pattern.pp pat)
            (sorted_triples (Hexastore.iter h pat))
            (sorted_triples (Partial.iter c pat)))
        (all_patterns 14))
    covp_configs

let test_covp_bulk () =
  let data = Array.init 200 (fun i -> t3 (i mod 7) (i mod 5) (i mod 11)) in
  let m = Check.Model.create () in
  Array.iter (fun tr -> ignore (Check.Model.add m tr)) data;
  List.iter
    (fun (orderings, label) ->
      let c1 = Partial.create ~orderings () in
      Array.iter (fun tr -> ignore (Partial.add_ids c1 tr)) data;
      let c2 = Partial.create ~orderings () in
      let added = Partial.add_bulk_ids c2 data in
      check_int (label ^ " bulk count") (Check.Model.size m) added;
      agrees_with_model (label ^ " point") c1 m 12;
      agrees_with_model (label ^ " bulk") c2 m 12)
    covp_configs

(* [memory_words] is exact: on LUBM 2x2 each store agrees with the
   words actually reachable from it (minus its dictionary) to within
   0.5% — COVP1 and COVP2, and Hexastores bulk-loaded (raw and packed)
   and then point-written. *)
let test_memory_matches_reachable () =
  let dict = Dict.Term_dict.create () in
  let cfg = Workloads.Lubm.config ~universities:2 ~departments_per_university:2 () in
  let ids =
    Array.of_list (List.map (Dict.Term_dict.encode_triple dict) (Workloads.Lubm.generate cfg))
  in
  let dict_words = Obj.reachable_words (Obj.repr dict) in
  let agrees label store memory_words =
    let reachable = Obj.reachable_words (Obj.repr store) - dict_words in
    let ratio = float_of_int memory_words /. float_of_int reachable in
    check_bool
      (Printf.sprintf "%s: memory_words %d vs reachable %d (%.4f)" label memory_words reachable ratio)
      true
      (Float.abs (ratio -. 1.) <= 0.005)
  in
  List.iter
    (fun (orderings, label) ->
      let c = Partial.create ~dict ~orderings () in
      ignore (Partial.add_bulk_ids c ids);
      agrees label c (Partial.memory_words c))
    covp_configs;
  List.iter
    (fun (repr, label) ->
      let h = Hexastore.create ~dict ~repr () in
      ignore (Hexastore.add_bulk_ids h ids);
      agrees label h (Hexastore.memory_words h);
      check_bool (label ^ " point write") true (Hexastore.remove_ids h ids.(0));
      agrees (label ^ " after a point write") h (Hexastore.memory_words h))
    [ (Sorted_ivec.Raw, "hexastore raw"); (Sorted_ivec.Packed, "hexastore packed") ]

let test_covp1_po_scan () =
  (* COVP1 has no pos: a Po read scans the property's pso table,
     probing each subject's o-list; COVP2 probes pos. *)
  List.iter
    (fun (orderings, label) ->
      let c = Partial.create ~orderings () in
      ignore (Partial.add_bulk_ids c [| t3 1 2 3; t3 5 2 3; t3 7 2 4 |]);
      let po = Pattern.make ~p:2 ~o:3 () in
      let serving = Partial.serving_ordering c po in
      check_bool (label ^ " serving ordering") true
        (Ordering.equal serving (if List.mem Ordering.Pos orderings then Ordering.Pos else Ordering.Pso));
      check_bool (label ^ " pos kept") (List.mem Ordering.Pos orderings) (Partial.index c Ordering.Pos <> None);
      Alcotest.check triple_list (label ^ " scan result") [ t3 1 2 3; t3 5 2 3 ]
        (Check.Model.pushed (Partial.iter c po));
      check_int (label ^ " no match") 0 (Partial.count c (Pattern.make ~p:2 ~o:9 ())))
    covp_configs

(* ------------------------------------------------------------------ *)
(* Store_sig boxing                                                    *)
(* ------------------------------------------------------------------ *)

let test_store_sig () =
  let h = Hexastore.create () in
  ignore (Hexastore.add_ids h (t3 1 2 3));
  let b = Store_sig.box_hexastore h in
  Alcotest.(check string) "name" "Hexastore" (Store_sig.name b);
  check_int "size" 1 (Store_sig.size b);
  check_int "iter" 1 (List.length (Check.Model.pushed (Store_sig.iter b Pattern.wildcard)));
  check_int "count" 1 (Store_sig.count b (Pattern.make ~s:1 ()));
  List.iter
    (fun (orderings, label) ->
      Alcotest.(check string)
        (label ^ " name") (String.uppercase_ascii label)
        (Store_sig.name (Store_sig.box_partial (Partial.create ~orderings ()))))
    covp_configs

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
             sorted_triples (Hexastore.iter h pat) = expected
             && Hexastore.count h pat = List.length expected)
           (all_patterns 11))

let prop_covp_equiv orderings name =
  QCheck.Test.make ~name ~count:150 arbitrary_ops (fun ops ->
      let h = Hexastore.create () and c = Partial.create ~orderings () in
      List.iter
        (fun (add, tr) ->
          if add then begin
            ignore (Hexastore.add_ids h tr);
            ignore (Partial.add_ids c tr)
          end
          else begin
            ignore (Hexastore.remove_ids h tr);
            ignore (Partial.remove_ids c tr)
          end)
        ops;
      Partial.check_invariant c;
      Partial.size c = Hexastore.size h
      && List.for_all
           (fun pat ->
             sorted_triples (Partial.iter c pat) = sorted_triples (Hexastore.iter h pat)
             && Partial.count c pat = Hexastore.count h pat)
           (all_patterns 11))

let prop_covp1_equiv = prop_covp_equiv [ Ordering.Pso ] "covp1 = hexastore on all patterns"
let prop_covp2_equiv = prop_covp_equiv [ Ordering.Pso; Ordering.Pos ] "covp2 = hexastore on all patterns"

let prop_bulk_equiv =
  QCheck.Test.make ~name:"bulk load = incremental load" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_bound 150) gen_triple))
    (fun triples ->
      let h1 = Hexastore.create () in
      List.iter (fun tr -> ignore (Hexastore.add_ids h1 tr)) triples;
      let h2 = Hexastore.create () in
      ignore (Hexastore.add_bulk_ids h2 (Array.of_list triples));
      Hexastore.check_invariant h2;
      sorted_triples (Hexastore.iter h1 Pattern.wildcard)
      = sorted_triples (Hexastore.iter h2 Pattern.wildcard))

(* A bulk pass merges its batch with each family's scan in one pass
   ([Index.refill]), wherever the batch's headers land.  Base ids are
   even and in [10, 30]; batch ids span [0, 40] and the batch always carries
   one all-below, one in-between (odd) and one all-above triple, so it
   brings headers on every side of the base's.  It also re-adds the
   triples removed from the base, whose headers the removal pruned.  The
   bulk-loaded store must match the same triples added one by one (each
   a one-triple rebuild), and every ordering it keeps must match
   [Check.Model], which shares no code with either. *)
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

(* Every ordering's sorted headers, each header's vector total, keys
   and terminal lists: the whole structure two stores must agree on. *)
let dump indices =
  List.map
    (fun (ord, idx) ->
      ( ord,
        List.map
          (fun h ->
            let v = Option.get (Index.find_vector idx h) in
            let entries = ref [] in
            Pair_vector.iter (fun k l -> entries := (k, Sorted_ivec.to_list l) :: !entries) v;
            (h, Pair_vector.total v, List.rev !entries))
          (Sorted_ivec.to_list (Index.headers_view idx)) ))
    indices

(* Every kept ordering, read back in its own order, holds exactly the
   model's triples sorted in that ordering: an oracle that shares no
   code with [Index.refill] or the fill. *)
let orderings_match indices model =
  List.for_all
    (fun (ord, idx) ->
      Check.Model.pushed (fun f -> Index.iter_triples idx (Ordering.emit ord f))
      = List.sort (Ordering.compare_triples ord) (Check.Model.to_list model))
    indices

let prop_bulk_merge ?(gen = gen_merge_case) name ~make ~add ~remove ~bulk ~indices ~size ~check =
  QCheck.Test.make ~name ~count:200 (QCheck.make ~print:print_merge_case gen)
    (fun (base, extra, ords) ->
      let removed = List.filter_map (fun (drop, t) -> if drop then Some t else None) base in
      let batch = t3 1 1 1 :: t3 21 21 21 :: t3 39 39 39 :: (removed @ extra) in
      let prepare () =
        let t = make ords in
        List.iter (fun (_, tr) -> ignore (add t tr)) base;
        List.iter (fun tr -> ignore (remove t tr)) removed;
        t
      in
      let bulk_t = prepare () and point_t = prepare () in
      ignore (bulk bulk_t (Array.of_list batch));
      List.iter (fun tr -> ignore (add point_t tr)) batch;
      let model = Check.Model.create () in
      List.iter (fun (_, tr) -> ignore (Check.Model.add model tr)) base;
      List.iter (fun tr -> ignore (Check.Model.remove model tr)) removed;
      List.iter (fun tr -> ignore (Check.Model.add model tr)) batch;
      check bulk_t;
      size bulk_t = size point_t
      && dump (indices bulk_t) = dump (indices point_t)
      && orderings_match (indices bulk_t) model)

(* Bulk adds into a populated store: base ids are the even ones in
   [20, 26] and batch ids span [17, 27], so in every ordering the batch
   brings second-level keys below and between the existing ones under
   existing headers, and terminal ids below and between a list's
   elements, all through the one merge of [Index.refill]. *)
let gen_populated_case =
  QCheck.Gen.(
    let even = map (fun k -> 20 + (2 * k)) (int_bound 3) in
    let near = int_range 17 27 in
    triple
      (list_size (int_range 1 60) (pair bool (map3 t3 even even even)))
      (list_size (int_range 1 60) (map3 t3 near near near))
      (map (List.sort_uniq Ordering.compare) (list_size (int_range 1 6) (oneofl Ordering.all))))

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
    ~add:Hexastore.add_ids ~remove:Hexastore.remove_ids ~bulk:Hexastore.add_bulk_ids
    ~indices:hexa_indices ~size:Hexastore.size ~check:Hexastore.check_invariant

let prop_bulk_merge_covp =
  prop_bulk_merge "bulk header merge = point inserts (covp2)"
    ~make:(fun _ -> Partial.create ~orderings:[ Ordering.Pso; Ordering.Pos ] ())
    ~add:Partial.add_ids ~remove:Partial.remove_ids ~bulk:Partial.add_bulk_ids
    ~indices:Partial.indices ~size:Partial.size ~check:Partial.check_invariant

let prop_bulk_merge_partial =
  prop_bulk_merge "bulk header merge = point inserts (partial)"
    ~make:(fun ords -> Partial.create ~orderings:ords ())
    ~add:Partial.add_ids ~remove:Partial.remove_ids ~bulk:Partial.add_bulk_ids ~indices:Partial.indices
    ~size:Partial.size ~check:Partial.check_invariant

let prop_bulk_add_populated_hexa =
  prop_bulk_merge ~gen:gen_populated_case
    "bulk add into a populated store = point inserts (hexastore)"
    ~make:(fun _ -> Hexastore.create ())
    ~add:Hexastore.add_ids ~remove:Hexastore.remove_ids ~bulk:Hexastore.add_bulk_ids
    ~indices:hexa_indices ~size:Hexastore.size ~check:Hexastore.check_invariant

let prop_bulk_add_populated_covp =
  prop_bulk_merge ~gen:gen_populated_case "bulk add into a populated store = point inserts (covp2)"
    ~make:(fun _ -> Partial.create ~orderings:[ Ordering.Pso; Ordering.Pos ] ())
    ~add:Partial.add_ids ~remove:Partial.remove_ids ~bulk:Partial.add_bulk_ids
    ~indices:Partial.indices ~size:Partial.size ~check:Partial.check_invariant

let prop_bulk_add_populated_partial =
  prop_bulk_merge ~gen:gen_populated_case
    "bulk add into a populated store = point inserts (partial)"
    ~make:(fun ords -> Partial.create ~orderings:ords ())
    ~add:Partial.add_ids ~remove:Partial.remove_ids ~bulk:Partial.add_bulk_ids ~indices:Partial.indices
    ~size:Partial.size ~check:Partial.check_invariant

(* A second bulk batch merges with what the first one built: COVP1,
   COVP2 and other partial stores loaded in two batches (overlapping,
   with repeats) hold the same indices as when loaded in one, and every
   kept ordering holds the model's triples. *)
let test_two_batches () =
  let data = Array.init 400 (fun i -> t3 (i * 7 mod 23) (i mod 6) (i * 5 mod 31)) in
  let first = Array.sub data 0 250 and second = Array.sub data 150 250 in
  let model = Check.Model.create () in
  Array.iter (fun tr -> ignore (Check.Model.add model tr)) data;
  List.iter
    (fun orderings ->
      let label = "partial " ^ String.concat "," (List.map Ordering.name orderings) in
      let once = Partial.create ~orderings () and twice = Partial.create ~orderings () in
      let n = Partial.add_bulk_ids once data in
      let n1 = Partial.add_bulk_ids twice first in
      let n2 = Partial.add_bulk_ids twice second in
      Partial.check_invariant twice;
      check_int (label ^ " new triples") n (n1 + n2);
      check_int (label ^ " size") (Check.Model.size model) (Partial.size twice);
      check_bool (label ^ " same indices") true
        (dump (Partial.indices once) = dump (Partial.indices twice));
      check_bool (label ^ " = model") true (orderings_match (Partial.indices twice) model))
    (List.map fst covp_configs @ [ [ Ordering.Spo; Ordering.Pso; Ordering.Ops ]; Ordering.all ])

(* A store bulk-loaded from empty is filled from columns
   ([Index.of_sorted_columns]), not merged ([Index.refill]).  The reference is point [add_ids] only.
   Batches are small-id ones full of repeats (plus a repeat of their own
   prefix), the empty batch, or a short batch of sparse ids up to the
   top of the dictionary's id space; half the cases fill a packed store. *)
let gen_fill_case =
  QCheck.Gen.(
    let small = map3 t3 (int_bound 12) (int_bound 6) (int_bound 12) in
    let top = Dict.Dictionary.max_ids - 1 in
    let sparse = map3 t3 (int_bound top) (int_bound top) (int_bound top) in
    pair
      (frequency
         [
           (6, map (fun l -> l @ List.filteri (fun i _ -> i < 10) l) (list_size (int_bound 150) small));
           (1, return []);
           (3, list_size (int_range 1 5) sparse);
         ])
      bool)

let print_fill_case (batch, packed) =
  Printf.sprintf "batch=[%s] packed=%b"
    (String.concat "; " (List.map (fun (t : id3) -> Printf.sprintf "(%d,%d,%d)" t.s t.p t.o) batch))
    packed

let no_violations h =
  match Check.store h with
  | [] -> true
  | vs -> QCheck.Test.fail_report (String.concat "; " (List.map Check.Violation.to_string vs))

(* Every ordering's headers, totals, keys and lists, the six index totals
   and [Check.store] (six-way agreement, physical list sharing), and
   every ordering against [Check.Model]. *)
let prop_fill_build =
  QCheck.Test.make ~name:"fill build = point inserts" ~count:300
    (QCheck.make ~print:print_fill_case gen_fill_case)
    (fun (batch, packed) ->
      let filled = Hexastore.create ~repr:(if packed then Sorted_ivec.Packed else Sorted_ivec.Raw) () in
      let n = Hexastore.add_bulk_ids filled (Array.of_list batch) in
      let point = Hexastore.create ~repr:Sorted_ivec.Raw () in
      let m = List.fold_left (fun m tr -> if Hexastore.add_ids point tr then m + 1 else m) 0 batch in
      let model = Check.Model.create () in
      List.iter (fun tr -> ignore (Check.Model.add model tr)) batch;
      no_violations filled && n = m
      && Hexastore.size filled = m
      && List.for_all (fun (_, idx) -> Index.total idx = m) (hexa_indices filled)
      && dump (hexa_indices filled) = dump (hexa_indices point)
      && orderings_match (hexa_indices filled) model)

type op = Add of id3 | Remove of id3 | Add_bulk of id3 list | Remove_bulk of id3 list

let print_op =
  let tr (t : id3) = Printf.sprintf "(%d,%d,%d)" t.s t.p t.o in
  let batch l = "[" ^ String.concat "; " (List.map tr l) ^ "]" in
  function
  | Add t -> "+" ^ tr t
  | Remove t -> "-" ^ tr t
  | Add_bulk l -> "+" ^ batch l
  | Remove_bulk l -> "-" ^ batch l

(* Point and bulk adds and removes after a fill, each a rebuild,
   against the reference model, op by op. *)
let prop_after_fill =
  let tr = QCheck.Gen.(map3 t3 (int_bound 10) (int_bound 5) (int_bound 10)) in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 120) tr)
        (list_size (int_bound 60)
           (frequency
              [
                (4, map (fun t -> Add t) tr);
                (4, map (fun t -> Remove t) tr);
                (1, map (fun l -> Add_bulk l) (list_size (int_bound 20) tr));
                (1, map (fun l -> Remove_bulk l) (list_size (int_bound 40) tr));
              ])))
  in
  let print (base, ops) =
    Printf.sprintf "base=%s ops=%s" (print_op (Add_bulk base)) (String.concat " " (List.map print_op ops))
  in
  QCheck.Test.make ~name:"after a fill build, point/bulk add/remove = Check.Model" ~count:300
    (QCheck.make ~print gen)
    (fun (base, ops) ->
      let h = Hexastore.create ~repr:Sorted_ivec.Raw () in
      let model = Check.Model.create () in
      ignore (Hexastore.add_bulk_ids h (Array.of_list base));
      List.iter (fun t -> ignore (Check.Model.add model t)) base;
      let count f l = List.fold_left (fun n t -> if f model t then n + 1 else n) 0 l in
      List.for_all
        (fun op ->
          (match op with
          | Add t -> Hexastore.add_ids h t = Check.Model.add model t
          | Remove t -> Hexastore.remove_ids h t = Check.Model.remove model t
          | Add_bulk l -> Hexastore.add_bulk_ids h (Array.of_list l) = count Check.Model.add l
          | Remove_bulk l -> Hexastore.remove_bulk_ids h (Array.of_list l) = count Check.Model.remove l)
          && Hexastore.size h = Check.Model.size model)
        ops
      && no_violations h
      && sorted_triples (Hexastore.iter h Pattern.wildcard) = Check.Model.to_list model)

(* Bulk removal against point removals from two copies of one store.
   The batch holds a random subset of the base, triples the base lacks,
   every triple of one subject and of one object (so whole headers and
   their vectors empty), and the subset again as duplicates.  Half the
   cases remove from a packed store. *)
let gen_remove_case =
  QCheck.Gen.(
    let id = int_bound 12 in
    quad
      (list_size (int_range 1 80) (pair bool (map3 t3 id id id)))
      (list_size (int_bound 20) (map3 t3 (int_bound 14) (int_bound 14) (int_bound 14)))
      (pair id id) bool)

let print_remove_case (base, extra, (s_all, o_all), packed) =
  let tr (t : id3) = Printf.sprintf "(%d,%d,%d)" t.s t.p t.o in
  Printf.sprintf "base=[%s] extra=[%s] all s=%d all o=%d packed=%b"
    (String.concat "; " (List.map (fun (pick, t) -> (if pick then "-" else "") ^ tr t) base))
    (String.concat "; " (List.map tr extra))
    s_all o_all packed

let prop_bulk_remove =
  QCheck.Test.make ~name:"bulk remove = point removes" ~count:300
    (QCheck.make ~print:print_remove_case gen_remove_case)
    (fun (base, extra, (s_all, o_all), packed) ->
      let base_triples = Array.of_list (List.map snd base) in
      let picked = List.filter_map (fun (pick, t) -> if pick then Some t else None) base in
      let whole =
        List.filter (fun (t : id3) -> t.s = s_all || t.o = o_all) (Array.to_list base_triples)
      in
      let batch = picked @ extra @ whole @ picked in
      let prepare repr =
        let h = Hexastore.create ~repr () in
        ignore (Hexastore.add_bulk_ids h base_triples);
        h
      in
      let bulk_h = prepare (if packed then Sorted_ivec.Packed else Sorted_ivec.Raw) in
      let point_h = prepare Sorted_ivec.Raw in
      let n = Hexastore.remove_bulk_ids bulk_h (Array.of_list batch) in
      let m =
        List.fold_left (fun m tr -> if Hexastore.remove_ids point_h tr then m + 1 else m) 0 batch
      in
      Hexastore.check_invariant bulk_h;
      n = m
      && Hexastore.size bulk_h = Hexastore.size point_h
      && dump (hexa_indices bulk_h) = dump (hexa_indices point_h))

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
      let ascending proj pat =
        let l = List.map proj (Check.Model.pushed (Hexastore.iter h pat)) in
        List.sort compare l = l
      in
      (* o-lists for (s,p) arrive sorted; s-lists for (p,o) arrive sorted. *)
      List.for_all
        (fun (tr : id3) ->
          ascending (fun (x : id3) -> x.o) (Pattern.make ~s:tr.s ~p:tr.p ())
          && ascending (fun (x : id3) -> x.s) (Pattern.make ~p:tr.p ~o:tr.o ())
          && ascending (fun (x : id3) -> x.p) (Pattern.make ~s:tr.s ~o:tr.o ()))
        triples)

(* The push reads the executor drives ([iter], the ranged
   [seek_sorted]) against [Check.Model], order included, [count]
   against what [iter] pushes, and [seek_ordering] against the
   ordering [seek_sorted] opens: on a bulk-built store, on both COVP
   baselines and a partial store (whose [iter] order is their own, so
   only the set is compared, and which serve no sorted cursor), on a
   delta with pending writes, and on a delta whose writes sit in its
   sorted level (single-write thresholds over a base eight times larger
   than the level keep each auto-flush in the level) with more pending
   on top.  One cursor serves every run of a pattern and position in
   turn — unit ranges ascending, one step back, then wider and empty
   ranges and the whole scan — so its gallop both resumes and
   restarts. *)
let prop_push_cursors =
  QCheck.Test.make ~name:"iter and ranged seek_sorted = model"
    ~count:100
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 60) gen_triple) (list_size (int_bound 12) gen_triple)))
    (fun (base, pending) ->
      let writes = pending @ List.filteri (fun i _ -> i < 4) base in
      let write d i tr = ignore (if i mod 3 = 0 then Delta.remove_ids d tr else Delta.add_ids d tr) in
      let h = Hexastore.create () in
      ignore (Hexastore.add_bulk_ids h (Array.of_list base));
      let d = Delta.of_base (Hexastore.create ()) in
      ignore (Delta.add_bulk_ids d (Array.of_list base));
      List.iteri (write d) writes;
      let leveled = Delta.of_base ~insert_threshold:1 ~delete_threshold:1 (Hexastore.create ()) in
      ignore (Delta.add_bulk_ids leveled (Array.of_list base));
      List.iteri (write leveled) writes;
      Delta.set_thresholds ~insert:1000 ~delete:1000 leveled;
      List.iteri (write leveled) (List.rev writes);
      let model rounds =
        let m = Check.Model.create () in
        List.iter (fun tr -> ignore (Check.Model.add m tr)) base;
        List.iter
          (List.iteri (fun i tr ->
               ignore (if i mod 3 = 0 then Check.Model.remove m tr else Check.Model.add m tr)))
          rounds;
        m
      in
      let covp orderings =
        let c = Partial.create ~orderings () in
        ignore (Partial.add_bulk_ids c (Array.of_list base));
        Store_sig.box_partial c
      in
      let partial = Partial.create ~orderings:[ Ordering.Pos; Ordering.Osp ] () in
      ignore (Partial.add_bulk_ids partial (Array.of_list base));
      let agree ~sorted store m =
        List.for_all
          (fun pat ->
            let want ord = List.sort (Ordering.compare_triples ord) (Check.Model.lookup m pat) in
            let pushed = Check.Model.pushed (Store_sig.iter store pat) in
            (if sorted then pushed = want (Ordering.for_shape (Pattern.shape pat))
             else List.sort Check.Model.compare_spo pushed = Check.Model.lookup m pat)
            && Store_sig.count store pat = List.length pushed
            && List.for_all
                 (fun pos ->
                   Store_sig.seek_ordering store pat pos
                   = Option.map fst (Store_sig.seek_sorted store pat pos)
                   &&
                   match Store_sig.seek_sorted store pat pos with
                   | None -> not sorted || Pattern.value_at pat pos <> None
                   | Some (ord, run) ->
                       let value (tr : id3) =
                         match pos with Pattern.Subj -> tr.s | Pred -> tr.p | Obj -> tr.o
                       in
                       let want = want ord in
                       let agrees (lo, hi) =
                         Check.Model.pushed (run lo hi)
                         = List.filter (fun tr -> lo <= value tr && value tr < hi) want
                       in
                       sorted
                       && Pattern.value_at pat pos = None
                       && List.for_all agrees
                            (List.map (fun k -> (k, k + 1)) [ 0; 1; 1; 3; 4; 7; 2; 9; 10 ]
                            @ [ (min_int, 2); (2, 5); (5, 5); (4, max_int); (min_int, max_int) ]))
                 [ Pattern.Subj; Pattern.Pred; Pattern.Obj ])
          (all_patterns 11)
      in
      let plain = model [] in
      agree ~sorted:true (Store_sig.box_hexastore h) plain
      && List.for_all (fun (orderings, _) -> agree ~sorted:false (covp orderings) plain) covp_configs
      && agree ~sorted:false (Store_sig.box_partial partial) plain
      && agree ~sorted:true (Store_sig.box_delta d) (model [ writes ])
      && agree ~sorted:true (Store_sig.box_delta leveled) (model [ writes; List.rev writes ]))

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
          Alcotest.test_case "two bulk batches = one" `Quick test_two_batches;
          Alcotest.test_case "covp1_po_scan" `Quick test_covp1_po_scan;
          Alcotest.test_case "memory matches reachable words" `Quick
            test_memory_matches_reachable;
        ] );
      ("store_sig", [ Alcotest.test_case "boxing" `Quick test_store_sig ]);
      ( "properties",
        [
          qt prop_hexa_model;
          qt prop_covp1_equiv;
          qt prop_covp2_equiv;
          qt prop_bulk_equiv;
          qt prop_bulk_merge_hexa;
          qt prop_fill_build;
          qt prop_after_fill;
          qt prop_bulk_merge_covp;
          qt prop_bulk_merge_partial;
          qt prop_bulk_add_populated_hexa;
          qt prop_bulk_add_populated_covp;
          qt prop_bulk_add_populated_partial;
          qt prop_bulk_remove;
          qt prop_space_bound;
          qt prop_lookup_sorted;
          qt prop_push_cursors;
        ] );
    ]
