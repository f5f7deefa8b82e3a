(* Tests for the [vectors] substrate: dynamic arrays, sorted vectors and
   merge-join kernels.  Property tests compare every operation against a
   reference implementation over plain lists / Stdlib.Set. *)

open Vectors

module Iset = Set.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Dynarray_int                                                        *)
(* ------------------------------------------------------------------ *)

let test_dynarray_basic () =
  let v = Dynarray_int.create () in
  check_int "empty length" 0 (Dynarray_int.length v);
  check_bool "is_empty" true (Dynarray_int.is_empty v);
  for i = 0 to 99 do
    Dynarray_int.push v (i * 2)
  done;
  check_int "length after pushes" 100 (Dynarray_int.length v);
  check_int "get 0" 0 (Dynarray_int.get v 0);
  check_int "get 99" 198 (Dynarray_int.get v 99);
  Dynarray_int.set v 50 (-7);
  check_int "set/get" (-7) (Dynarray_int.get v 50)

let test_dynarray_bounds () =
  let v = Dynarray_int.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get -1" (Invalid_argument "Dynarray_int: index -1 out of bounds [0,3)")
    (fun () -> ignore (Dynarray_int.get v (-1)));
  Alcotest.check_raises "get 3" (Invalid_argument "Dynarray_int: index 3 out of bounds [0,3)")
    (fun () -> ignore (Dynarray_int.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Dynarray_int.pop: empty") (fun () ->
      ignore (Dynarray_int.pop (Dynarray_int.create ())))

let test_dynarray_push_pop () =
  let v = Dynarray_int.create ~capacity:1 () in
  Dynarray_int.push v 1;
  Dynarray_int.push v 2;
  Dynarray_int.push v 3;
  check_int "pop" 3 (Dynarray_int.pop v);
  check_int "last" 2 (Dynarray_int.last v);
  check_int "length" 2 (Dynarray_int.length v);
  Dynarray_int.clear v;
  check_int "cleared" 0 (Dynarray_int.length v)

let test_dynarray_insert_remove () =
  let v = Dynarray_int.of_list [ 1; 3; 4 ] in
  Dynarray_int.insert v 1 2;
  check_int_list "insert middle" [ 1; 2; 3; 4 ] (Dynarray_int.to_list v);
  Dynarray_int.insert v 4 5;
  check_int_list "insert end" [ 1; 2; 3; 4; 5 ] (Dynarray_int.to_list v);
  Dynarray_int.insert v 0 0;
  check_int_list "insert front" [ 0; 1; 2; 3; 4; 5 ] (Dynarray_int.to_list v);
  Dynarray_int.remove v 0;
  Dynarray_int.remove v 4;
  check_int_list "removes" [ 1; 2; 3; 4 ] (Dynarray_int.to_list v)

let test_dynarray_append_copy () =
  let a = Dynarray_int.of_list [ 1; 2 ] and b = Dynarray_int.of_list [ 3; 4 ] in
  Dynarray_int.append a b;
  check_int_list "append" [ 1; 2; 3; 4 ] (Dynarray_int.to_list a);
  let c = Dynarray_int.copy a in
  Dynarray_int.push c 9;
  check_int "copy is detached" 4 (Dynarray_int.length a);
  check_int "copy grew" 5 (Dynarray_int.length c)

let test_dynarray_sort_uniq () =
  let v = Dynarray_int.of_list [ 5; 1; 5; 3; 1; 3; 3 ] in
  Dynarray_int.sort_uniq v;
  check_int_list "sort_uniq" [ 1; 3; 5 ] (Dynarray_int.to_list v);
  let empty = Dynarray_int.create () in
  Dynarray_int.sort_uniq empty;
  check_int "sort_uniq empty" 0 (Dynarray_int.length empty)

let test_dynarray_iter_fold () =
  let v = Dynarray_int.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Dynarray_int.fold_left ( + ) 0 v);
  let acc = ref [] in
  Dynarray_int.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (0, 1); (1, 2); (2, 3); (3, 4) ] (List.rev !acc);
  check_bool "exists" true (Dynarray_int.exists (fun x -> x = 3) v);
  check_bool "for_all" true (Dynarray_int.for_all (fun x -> x > 0) v);
  Dynarray_int.map_inplace (fun x -> x * x) v;
  check_int_list "map_inplace" [ 1; 4; 9; 16 ] (Dynarray_int.to_list v)

let test_dynarray_seq_sub () =
  let v = Dynarray_int.of_list [ 10; 20; 30; 40 ] in
  check_int_list "to_seq" [ 10; 20; 30; 40 ] (List.of_seq (Dynarray_int.to_seq v));
  Alcotest.(check (array int)) "sub" [| 20; 30 |] (Dynarray_int.sub v 1 2);
  Dynarray_int.truncate v 2;
  check_int_list "truncate" [ 10; 20 ] (Dynarray_int.to_list v)

let prop_dynarray_model =
  QCheck.Test.make ~name:"dynarray behaves like list under push/pop" ~count:500
    QCheck.(list small_int)
    (fun ops ->
      let v = Dynarray_int.create () in
      let model = ref [] in
      List.iter
        (fun x ->
          if x mod 5 = 0 && !model <> [] then begin
            let top = Dynarray_int.pop v in
            match !model with
            | m :: rest ->
                model := rest;
                if top <> m then QCheck.Test.fail_report "pop mismatch"
            | [] -> ()
          end
          else begin
            Dynarray_int.push v x;
            model := x :: !model
          end)
        ops;
      Dynarray_int.to_list v = List.rev !model)

(* ------------------------------------------------------------------ *)
(* Sorted_ivec                                                         *)
(* ------------------------------------------------------------------ *)

let test_sivec_add_mem () =
  let v = Sorted_ivec.create () in
  check_bool "add 5" true (Sorted_ivec.add v 5);
  check_bool "add 1" true (Sorted_ivec.add v 1);
  check_bool "add 9" true (Sorted_ivec.add v 9);
  check_bool "dup add" false (Sorted_ivec.add v 5);
  check_int_list "sorted" [ 1; 5; 9 ] (Sorted_ivec.to_list v);
  check_bool "mem 5" true (Sorted_ivec.mem v 5);
  check_bool "mem 4" false (Sorted_ivec.mem v 4);
  Sorted_ivec.check_invariant v

let test_sivec_remove () =
  let v = Sorted_ivec.of_list [ 3; 1; 4; 1; 5 ] in
  check_int_list "of_list dedups" [ 1; 3; 4; 5 ] (Sorted_ivec.to_list v);
  check_bool "remove present" true (Sorted_ivec.remove v 3);
  check_bool "remove absent" false (Sorted_ivec.remove v 3);
  check_int_list "after remove" [ 1; 4; 5 ] (Sorted_ivec.to_list v)

let test_sivec_bounds () =
  let v = Sorted_ivec.of_list [ 10; 20; 30 ] in
  check_int "min" 10 (Sorted_ivec.min_elt v);
  check_int "max" 30 (Sorted_ivec.max_elt v);
  check_int "rank 20" 1 (Sorted_ivec.rank v 20);
  check_int "rank 25" 2 (Sorted_ivec.rank v 25);
  check_int "rank 35" 3 (Sorted_ivec.rank v 35);
  Alcotest.(check (option int)) "find_geq 15" (Some 20) (Sorted_ivec.find_geq v 15);
  Alcotest.(check (option int)) "find_geq 30" (Some 30) (Sorted_ivec.find_geq v 30);
  Alcotest.(check (option int)) "find_geq 31" None (Sorted_ivec.find_geq v 31);
  Alcotest.check_raises "min empty" Not_found (fun () ->
      ignore (Sorted_ivec.min_elt (Sorted_ivec.create ())))

(* The positional halves of add/remove: shift at a known index, grow
   past the initial capacity, reject out-of-range positions. *)
let test_sivec_insert_remove_at () =
  let v = Sorted_ivec.create ~capacity:1 () in
  Sorted_ivec.insert_at v 0 20;
  Sorted_ivec.insert_at v 0 10;
  Sorted_ivec.insert_at v 2 40;
  Sorted_ivec.insert_at v 2 30;
  check_int_list "inserted" [ 10; 20; 30; 40 ] (Sorted_ivec.to_list v);
  Sorted_ivec.remove_at v 1;
  Sorted_ivec.remove_at v 2;
  check_int_list "removed" [ 10; 30 ] (Sorted_ivec.to_list v);
  Alcotest.check_raises "insert past end"
    (Invalid_argument "Sorted_ivec.insert_at: index out of bounds") (fun () ->
      Sorted_ivec.insert_at v 3 50);
  Alcotest.check_raises "remove at end"
    (Invalid_argument "Sorted_ivec.remove_at: index out of bounds") (fun () ->
      Sorted_ivec.remove_at v 2)

let test_sivec_of_sorted_array () =
  let v = Sorted_ivec.of_sorted_array [| 1; 2; 3 |] in
  check_int "len" 3 (Sorted_ivec.length v);
  Alcotest.check_raises "rejects unsorted"
    (Invalid_argument "Sorted_ivec.of_sorted_array: not strictly increasing") (fun () ->
      ignore (Sorted_ivec.of_sorted_array [| 1; 1; 2 |]))

let test_sivec_iter_from () =
  let v = Sorted_ivec.of_list [ 2; 4; 6; 8 ] in
  let acc = ref [] in
  Sorted_ivec.iter_from (fun x -> acc := x :: !acc) v 5;
  check_int_list "iter_from 5" [ 6; 8 ] (List.rev !acc);
  acc := [];
  Sorted_ivec.iter_from (fun x -> acc := x :: !acc) v 4;
  check_int_list "iter_from 4" [ 4; 6; 8 ] (List.rev !acc)

let test_sivec_subset () =
  let a = Sorted_ivec.of_list [ 2; 4 ] and b = Sorted_ivec.of_list [ 1; 2; 3; 4 ] in
  check_bool "subset yes" true (Sorted_ivec.subset a b);
  check_bool "subset no" false (Sorted_ivec.subset b a);
  check_bool "empty subset" true (Sorted_ivec.subset (Sorted_ivec.create ()) a);
  check_bool "not subset" false (Sorted_ivec.subset (Sorted_ivec.of_list [ 5 ]) b)

(* Binary-search bounds audit: empty vector, single element, absent keys
   at both ends, exact hits on the first and last element — every seam of
   [index_geq] and the operations derived from it.  (Elements are
   distinct by construction, so first- and last-occurrence semantics
   coincide; [index_geq] is the canonical lower bound.) *)
let test_sivec_search_bounds_audit () =
  let empty = Sorted_ivec.create () in
  check_int "empty index_geq" 0 (Sorted_ivec.index_geq empty 7);
  check_int "empty rank" 0 (Sorted_ivec.rank empty min_int);
  check_bool "empty mem" false (Sorted_ivec.mem empty 7);
  Alcotest.(check (option int)) "empty find_geq" None (Sorted_ivec.find_geq empty 7);
  let single = Sorted_ivec.of_list [ 42 ] in
  check_int "single below" 0 (Sorted_ivec.index_geq single 41);
  check_int "single exact" 0 (Sorted_ivec.index_geq single 42);
  check_int "single above" 1 (Sorted_ivec.index_geq single 43);
  check_bool "single mem exact" true (Sorted_ivec.mem single 42);
  check_bool "single mem below" false (Sorted_ivec.mem single 41);
  check_bool "single mem above" false (Sorted_ivec.mem single 43);
  let v = Sorted_ivec.of_list [ 10; 20; 30; 40 ] in
  check_int "absent below min" 0 (Sorted_ivec.index_geq v 9);
  check_int "absent above max" 4 (Sorted_ivec.index_geq v 41);
  check_bool "mem below min" false (Sorted_ivec.mem v 9);
  check_bool "mem above max" false (Sorted_ivec.mem v 41);
  Alcotest.(check (option int)) "find_geq below min" (Some 10) (Sorted_ivec.find_geq v 9);
  Alcotest.(check (option int)) "find_geq above max" None (Sorted_ivec.find_geq v 41);
  check_int "first exact" 0 (Sorted_ivec.index_geq v 10);
  check_int "last exact" 3 (Sorted_ivec.index_geq v 40);
  check_int "rank of max" 3 (Sorted_ivec.rank v 40);
  check_int "rank past max" 4 (Sorted_ivec.rank v 41);
  check_int "gap key lands right" 1 (Sorted_ivec.index_geq v 15);
  check_int "last gap key" 3 (Sorted_ivec.index_geq v 35);
  let acc = ref [] in
  Sorted_ivec.iter_from (fun x -> acc := x :: !acc) v 41;
  check_int_list "iter_from beyond max" [] !acc;
  Sorted_ivec.iter_from (fun x -> acc := x :: !acc) v min_int;
  check_int_list "iter_from below min" [ 10; 20; 30; 40 ] (List.rev !acc);
  check_bool "remove below min" false (Sorted_ivec.remove (Sorted_ivec.of_list [ 1; 2 ]) 0);
  check_bool "remove above max" false (Sorted_ivec.remove (Sorted_ivec.of_list [ 1; 2 ]) 3)

let prop_sivec_index_geq_oracle =
  QCheck.Test.make ~name:"index_geq/mem/find_geq vs list oracle" ~count:500
    QCheck.(pair (list (int_bound 60)) (int_bound 70))
    (fun (xs, x) ->
      let v = Sorted_ivec.of_list xs in
      let elements = Iset.elements (Iset.of_list xs) in
      Sorted_ivec.index_geq v x = List.length (List.filter (fun e -> e < x) elements)
      && Sorted_ivec.mem v x = List.mem x elements
      && Sorted_ivec.find_geq v x = List.find_opt (fun e -> e >= x) elements)

let prop_sivec_set_model =
  QCheck.Test.make ~name:"sorted_ivec behaves like Set under add/remove/mem" ~count:500
    QCheck.(list (pair bool (int_bound 100)))
    (fun ops ->
      let v = Sorted_ivec.create () in
      let model = ref Iset.empty in
      List.iter
        (fun (is_add, x) ->
          if is_add then begin
            let added = Sorted_ivec.add v x in
            if added <> not (Iset.mem x !model) then QCheck.Test.fail_report "add result";
            model := Iset.add x !model
          end
          else begin
            let removed = Sorted_ivec.remove v x in
            if removed <> Iset.mem x !model then QCheck.Test.fail_report "remove result";
            model := Iset.remove x !model
          end)
        ops;
      Sorted_ivec.check_invariant v;
      Sorted_ivec.to_list v = Iset.elements !model)

let prop_sivec_ascending_adds_fast_path =
  QCheck.Test.make ~name:"ascending bulk adds keep invariant" ~count:200
    QCheck.(list (int_bound 10000))
    (fun xs ->
      let sorted = List.sort_uniq compare xs in
      let v = Sorted_ivec.create () in
      List.iter (fun x -> ignore (Sorted_ivec.add v x)) sorted;
      Sorted_ivec.check_invariant v;
      Sorted_ivec.to_list v = sorted)

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

let sv = Sorted_ivec.of_list

let test_merge_intersect () =
  check_int_list "basic" [ 2; 4 ] (Sorted_ivec.to_list (Merge.intersect (sv [ 1; 2; 3; 4 ]) (sv [ 2; 4; 6 ])));
  check_int_list "disjoint" [] (Sorted_ivec.to_list (Merge.intersect (sv [ 1; 3 ]) (sv [ 2; 4 ])));
  check_int_list "empty" [] (Sorted_ivec.to_list (Merge.intersect (sv []) (sv [ 1 ])));
  check_int "count" 2 (Merge.intersect_count (sv [ 1; 2; 3; 4 ]) (sv [ 2; 4; 6 ]))

let test_merge_union_diff () =
  check_int_list "union" [ 1; 2; 3; 4; 6 ]
    (Sorted_ivec.to_list (Merge.union (sv [ 1; 2; 3 ]) (sv [ 2; 4; 6 ])));
  check_int_list "diff" [ 1; 3 ] (Sorted_ivec.to_list (Merge.diff (sv [ 1; 2; 3 ]) (sv [ 2; 4 ])));
  check_int_list "union_many" [ 1; 2; 3; 4; 5 ]
    (Sorted_ivec.to_list (Merge.union_many [ sv [ 1; 4 ]; sv [ 2; 5 ]; sv [ 3 ]; sv [] ]));
  check_int_list "union_many empty" [] (Sorted_ivec.to_list (Merge.union_many []))

let test_merge_join_callback () =
  let acc = ref [] in
  Merge.merge_join (fun x -> acc := x :: !acc) (sv [ 1; 2; 3; 5 ]) (sv [ 2; 3; 4; 5 ]);
  check_int_list "merge_join hits" [ 2; 3; 5 ] (List.rev !acc)

let test_merge_arrays () =
  Alcotest.(check (array int)) "intersect_arrays" [| 3; 7 |]
    (Merge.intersect_arrays [| 1; 3; 5; 7 |] [| 2; 3; 6; 7; 9 |])

let test_merge_seq () =
  let s l = List.to_seq l in
  check_bool "ascending yes" true (Merge.is_strictly_ascending (s [ 1; 2; 9 ]));
  check_bool "ascending no" false (Merge.is_strictly_ascending (s [ 1; 1 ]))

let test_merge_gallop () =
  let small = sv [ 5; 500; 5000 ] in
  let large = sv (List.init 1000 (fun i -> i * 5)) in
  check_int_list "gallop" [ 5; 500 ] (Sorted_ivec.to_list (Merge.intersect_gallop small large));
  (* order of arguments must not matter *)
  check_int_list "gallop swapped" [ 5; 500 ]
    (Sorted_ivec.to_list (Merge.intersect_gallop large small))

let set_ops_gen =
  QCheck.(pair (list (int_bound 50)) (list (int_bound 50)))

let prop_merge_vs_set op name set_op =
  QCheck.Test.make ~name ~count:500 set_ops_gen (fun (xs, ys) ->
      let a = Sorted_ivec.of_list xs and b = Sorted_ivec.of_list ys in
      let sa = Iset.of_list xs and sb = Iset.of_list ys in
      Sorted_ivec.to_list (op a b) = Iset.elements (set_op sa sb))

let prop_intersect = prop_merge_vs_set Merge.intersect "intersect = Set.inter" Iset.inter

let prop_count_adaptive =
  QCheck.Test.make ~name:"intersect_count_adaptive = |Set.inter|" ~count:500 set_ops_gen
    (fun (xs, ys) ->
      let a = Sorted_ivec.of_list xs and b = Sorted_ivec.of_list ys in
      Merge.intersect_count_adaptive a b = Iset.cardinal (Iset.inter (Iset.of_list xs) (Iset.of_list ys)))

let test_count_adaptive_skewed () =
  (* Force the galloping branch: tiny vs large. *)
  let small = Sorted_ivec.of_list [ 3; 5000; 9999; 123456 ] in
  let large = Sorted_ivec.of_list (List.init 10000 (fun i -> i)) in
  Alcotest.(check int) "skewed count" 3 (Merge.intersect_count_adaptive small large);
  Alcotest.(check int) "swapped" 3 (Merge.intersect_count_adaptive large small);
  Alcotest.(check int) "empty" 0 (Merge.intersect_count_adaptive (Sorted_ivec.create ()) large)
let prop_union = prop_merge_vs_set Merge.union "union = Set.union" Iset.union
let prop_diff = prop_merge_vs_set Merge.diff "diff = Set.diff" Iset.diff
let prop_gallop = prop_merge_vs_set Merge.intersect_gallop "gallop = Set.inter" Iset.inter

let prop_union_many =
  QCheck.Test.make ~name:"union_many = fold Set.union" ~count:200
    QCheck.(list (list (int_bound 50)))
    (fun lists ->
      let vs = List.map Sorted_ivec.of_list lists in
      let expected = List.fold_left (fun acc l -> Iset.union acc (Iset.of_list l)) Iset.empty lists in
      Sorted_ivec.to_list (Merge.union_many vs) = Iset.elements expected)

(* List-based oracles for the remaining join kernels: the callback join
   and the count-only intersection must agree with naive list
   filtering. *)

let oracle_inter xs ys =
  let sy = Iset.of_list ys in
  List.filter (fun x -> Iset.mem x sy) (Iset.elements (Iset.of_list xs))

let prop_merge_join_oracle =
  QCheck.Test.make ~name:"merge_join visits exactly the intersection, in order" ~count:500
    set_ops_gen
    (fun (xs, ys) ->
      let acc = ref [] in
      Merge.merge_join (fun x -> acc := x :: !acc) (Sorted_ivec.of_list xs)
        (Sorted_ivec.of_list ys);
      List.rev !acc = oracle_inter xs ys)

let prop_intersect_count_oracle =
  QCheck.Test.make ~name:"intersect_count = |list intersection|" ~count:500 set_ops_gen
    (fun (xs, ys) ->
      Merge.intersect_count (Sorted_ivec.of_list xs) (Sorted_ivec.of_list ys)
      = List.length (oracle_inter xs ys))

let prop_merge_diff_oracle =
  QCheck.Test.make ~name:"diff = list filter oracle" ~count:500 set_ops_gen
    (fun (xs, ys) ->
      let sy = Iset.of_list ys in
      Sorted_ivec.to_list (Merge.diff (Sorted_ivec.of_list xs) (Sorted_ivec.of_list ys))
      = List.filter (fun x -> not (Iset.mem x sy)) (Iset.elements (Iset.of_list xs)))

let dedup_sorted l = Iset.elements (Iset.of_list l)

(* ------------------------------------------------------------------ *)
(* Galloping kernels (merge-join execution substrate)                  *)
(* ------------------------------------------------------------------ *)

(* [search_from v ~from x] is the resumable lower bound behind the
   merge-join seeks: the first index >= from whose element is >= x. *)
let oracle_search_from xs ~from x =
  let elements = Array.of_list (dedup_sorted xs) in
  let n = Array.length elements in
  let from = if from < 0 then 0 else from in
  let rec scan i = if i >= n then n else if elements.(i) >= x then i else scan (i + 1) in
  scan from

let prop_search_from_oracle =
  QCheck.Test.make ~name:"search_from = suffix lower bound oracle" ~count:500
    QCheck.(triple (list (int_bound 60)) (int_bound 20) (int_bound 70))
    (fun (xs, from, x) ->
      let v = Sorted_ivec.of_list xs in
      Sorted_ivec.search_from v ~from x = oracle_search_from xs ~from x
      (* anchored at the start it coincides with the plain lower bound *)
      && Sorted_ivec.search_from v ~from:0 x = Sorted_ivec.index_geq v x)

let test_search_from_edges () =
  let empty = Sorted_ivec.create () in
  check_int "empty" 0 (Sorted_ivec.search_from empty ~from:0 7);
  let v = sv [ 10; 20; 30; 40 ] in
  check_int "negative from clamps" 0 (Sorted_ivec.search_from v ~from:(-3) 5);
  check_int "from past end" 4 (Sorted_ivec.search_from v ~from:9 5);
  check_int "from at end" 4 (Sorted_ivec.search_from v ~from:4 5);
  check_int "already satisfied at from" 1 (Sorted_ivec.search_from v ~from:1 15);
  check_int "exact hit" 2 (Sorted_ivec.search_from v ~from:0 30);
  check_int "exact hit at from" 2 (Sorted_ivec.search_from v ~from:2 30);
  check_int "beyond max" 4 (Sorted_ivec.search_from v ~from:0 41);
  (* ascending resumable probes — the cursor pattern the seeks rely on *)
  let big = sv (List.init 10000 (fun i -> i * 3)) in
  let cursor = ref 0 in
  List.iter
    (fun x ->
      cursor := Sorted_ivec.search_from big ~from:!cursor x;
      check_int
        (Printf.sprintf "resumed probe %d" x)
        (Sorted_ivec.index_geq big x) !cursor)
    [ 0; 1; 299; 300; 8999; 29997; 29998; 50000 ]

let prop_merge_join_gallop_oracle =
  QCheck.Test.make ~name:"merge_join_gallop visits exactly the intersection, in order"
    ~count:500 set_ops_gen
    (fun (xs, ys) ->
      let acc = ref [] in
      Merge.merge_join_gallop
        (fun x -> acc := x :: !acc)
        (Sorted_ivec.of_list xs) (Sorted_ivec.of_list ys);
      List.rev !acc = oracle_inter xs ys)

(* Adversarial shapes for the galloping kernels: a tiny side against a
   huge one (the doubling bracket must overshoot and recover), in both
   argument orders. *)
let test_gallop_one_side_tiny () =
  let tiny = sv [ 3; 14000; 29997 ] in
  let huge = sv (List.init 10000 (fun i -> i * 3)) in
  let expected = [ 3; 29997 ] in
  check_int_list "intersect_gallop tiny-first" expected
    (Sorted_ivec.to_list (Merge.intersect_gallop tiny huge));
  check_int_list "intersect_gallop huge-first" expected
    (Sorted_ivec.to_list (Merge.intersect_gallop huge tiny));
  let run f a b =
    let acc = ref [] in
    f (fun x -> acc := x :: !acc) a b;
    List.rev !acc
  in
  check_int_list "merge_join_gallop tiny-first" expected (run Merge.merge_join_gallop tiny huge);
  check_int_list "merge_join_gallop huge-first" expected (run Merge.merge_join_gallop huge tiny);
  (* single-element operands: the degenerate bracket *)
  let one = sv [ 29997 ] in
  check_int_list "singleton hit" [ 29997 ] (run Merge.merge_join_gallop one huge);
  check_int_list "singleton miss" [] (run Merge.merge_join_gallop (sv [ 29998 ]) huge)

(* Interleaved runs: each side holds alternating blocks of 100, so the
   kernels must keep leapfrogging block-by-block with nothing in
   common, then agree fully when one side covers both phases. *)
let test_gallop_interleaved_runs () =
  let block base = List.init 100 (fun i -> base + i) in
  let evens = sv (List.concat_map block [ 0; 200; 400; 600 ])
  and odds = sv (List.concat_map block [ 100; 300; 500; 700 ]) in
  check_int_list "disjoint interleaved runs" []
    (Sorted_ivec.to_list (Merge.intersect_gallop evens odds));
  let acc = ref 0 in
  Merge.merge_join_gallop (fun _ -> incr acc) evens odds;
  check_int "merge_join_gallop disjoint runs" 0 !acc;
  let all = sv (List.concat_map block [ 0; 100; 200; 300; 400; 500; 600; 700 ]) in
  check_int_list "runs subset full" (Sorted_ivec.to_list evens)
    (Sorted_ivec.to_list (Merge.intersect_gallop evens all));
  Merge.merge_join_gallop (fun _ -> incr acc) odds all;
  check_int "merge_join_gallop runs subset" 400 !acc;
  (* search_from hopping across the run boundaries *)
  let cursor = ref 0 in
  List.iter
    (fun x ->
      cursor := Sorted_ivec.search_from evens ~from:!cursor x;
      check_int (Printf.sprintf "run-boundary probe %d" x) (Sorted_ivec.index_geq evens x)
        !cursor)
    [ 50; 100; 199; 250; 399; 650; 699; 701 ]

(* ------------------------------------------------------------------ *)
(* Compressed codecs (PR 10)                                           *)
(* ------------------------------------------------------------------ *)

let compressed_kinds = Sorted_ivec.[ Packed ]
let kname = Sorted_ivec.kind_name
let check_string_list = Alcotest.(check (list string))

(* Hand-picked encodings that stress the block format: all-equal deltas
   (constant-gap runs pack to tiny widths), exact 128-block boundaries,
   the widest packed cell (56 bits, which the encoder's register holds
   next to a partial byte), 2^30-range outliers that force the
   wide-cell path, and spans so large
   the frame-of-reference subtraction is the whole word. *)
let adversarial_cases =
  [
    ("empty", []);
    ("singleton", [ 7 ]);
    ("all-equal gaps", List.init 300 (fun i -> i * 7));
    ("dense run", List.init 400 (fun i -> i));
    ("one block exactly", List.init 128 (fun i -> (i * 3) + 1));
    ("one block plus one", List.init 129 (fun i -> (i * 3) + 1));
    ("56-bit cells", List.init 200 (fun i -> (i * (1 lsl 49)) + (i land 3)));
    ("2^30 outlier", [ 0; 1; 2; 1 lsl 30; (1 lsl 30) + 1; 1 lsl 61 ]);
    ("huge span", [ 0; max_int ]);
    ("full word incl. min_int", [ min_int; -1; 0; max_int ]);
  ]

let test_codec_roundtrip_adversarial () =
  List.iter
    (fun kind ->
      List.iter
        (fun (label, xs0) ->
          let name = Printf.sprintf "%s/%s" (kname kind) label in
          let xs = List.sort_uniq compare xs0 in
          let raw = Sorted_ivec.of_list xs in
          let c = Sorted_ivec.compress kind raw in
          check_int_list (name ^ " roundtrip") xs (Sorted_ivec.to_list c);
          check_bool (name ^ " equal raw") true (Sorted_ivec.equal c raw);
          check_string_list (name ^ " block headers") [] (Sorted_ivec.block_violations c);
          Sorted_ivec.check_invariant c;
          List.iteri (fun i x -> check_int (name ^ " get") x (Sorted_ivec.get c i)) xs;
          (* decompressing restores a mutable vector *)
          let back = Sorted_ivec.compress Sorted_ivec.Raw c in
          check_bool (name ^ " back to raw") false (Sorted_ivec.is_compressed back);
          check_int_list (name ^ " raw roundtrip") xs (Sorted_ivec.to_list back))
        adversarial_cases)
    compressed_kinds

let test_codec_frozen () =
  let c = Sorted_ivec.compress Sorted_ivec.Packed (Sorted_ivec.of_list [ 1; 2; 3 ]) in
  check_bool "is_compressed" true (Sorted_ivec.is_compressed c);
  Alcotest.check_raises "add" (Invalid_argument "Sorted_ivec.add: compressed vector is immutable")
    (fun () -> ignore (Sorted_ivec.add c 9));
  Alcotest.check_raises "remove"
    (Invalid_argument "Sorted_ivec.remove: compressed vector is immutable") (fun () ->
      ignore (Sorted_ivec.remove c 2));
  Alcotest.check_raises "clear"
    (Invalid_argument "Sorted_ivec.clear: compressed vector is immutable") (fun () ->
      Sorted_ivec.clear c);
  (* copy thaws: same elements, mutable again *)
  let cp = Sorted_ivec.copy c in
  check_bool "copy thaws" false (Sorted_ivec.is_compressed cp);
  check_bool "copy adds" true (Sorted_ivec.add cp 9)

(* A stream shared by several monotone runs, sliced the way the flat
   index slices its terminal stream; every read on a slice must agree
   with a raw rebuild of that run. *)
let test_codec_stream_slices () =
  let runs = [ [ 5; 9; 12 ]; [ 1; 2; 3; 4 ]; List.init 200 (fun i -> 2 * i); [ 42 ] ] in
  let flat = Array.of_list (List.concat runs) in
  let s = Sorted_ivec.stream_of_array flat in
  check_int "stream_length" (Array.length flat) (Sorted_ivec.stream_length s);
  Array.iteri (fun i x -> check_int "stream_get" x (Sorted_ivec.stream_get s i)) flat;
  check_string_list "stream_validate" [] (Sorted_ivec.stream_validate s);
  let off = ref 0 in
  List.iter
    (fun r ->
      let len = List.length r in
      let sl = Sorted_ivec.slice s ~off:!off ~len in
      let raw = Sorted_ivec.of_list r in
      check_int_list "slice" r (Sorted_ivec.to_list sl);
      let hi = List.fold_left max 0 r + 2 in
      for x = 0 to hi do
        check_int "slice index_geq" (Sorted_ivec.index_geq raw x) (Sorted_ivec.index_geq sl x);
        for from = 0 to len do
          check_int "slice search_from" (Sorted_ivec.search_from raw ~from x)
            (Sorted_ivec.search_from sl ~from x)
        done
      done;
      off := !off + len)
    runs

(* One-element slices of an unsorted stream: every run is a singleton,
   the degenerate slice shape. *)
let test_codec_singleton_segments () =
  let n = 150 in
  let flat = Array.init n (fun i -> ((i * 13) mod 7) + i) in
  let s = Sorted_ivec.stream_of_array flat in
  check_string_list "validate" [] (Sorted_ivec.stream_validate s);
  Array.iteri
    (fun i x ->
      check_int "get" x (Sorted_ivec.stream_get s i);
      let sl = Sorted_ivec.slice s ~off:i ~len:1 in
      check_int_list "slice" [ x ] (Sorted_ivec.to_list sl))
    flat

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec encode∘decode = id, monotone blocks" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 350) (int_bound 100000))
    (fun xs ->
      let raw = Sorted_ivec.of_list xs in
      List.for_all
        (fun kind ->
          let c = Sorted_ivec.compress kind raw in
          Sorted_ivec.block_violations c = []
          && Sorted_ivec.to_list c = Sorted_ivec.to_list raw
          && Sorted_ivec.length c = Sorted_ivec.length raw
          && Sorted_ivec.equal c raw)
        compressed_kinds)

let prop_codec_search_oracle =
  QCheck.Test.make ~name:"compressed search_from/index_geq ≡ raw oracle" ~count:300
    QCheck.(
      triple (list_of_size Gen.(int_range 0 350) (int_bound 4000)) (int_bound 4200) small_nat)
    (fun (xs, x, from0) ->
      let raw = Sorted_ivec.of_list xs in
      let n = Sorted_ivec.length raw in
      let from = from0 mod (n + 1) in
      List.for_all
        (fun kind ->
          let c = Sorted_ivec.compress kind raw in
          Sorted_ivec.index_geq c x = Sorted_ivec.index_geq raw x
          && Sorted_ivec.search_from c ~from x = Sorted_ivec.search_from raw ~from x
          && Sorted_ivec.find_geq c x = Sorted_ivec.find_geq raw x
          && Sorted_ivec.mem c x = Sorted_ivec.mem raw x
          &&
          let suffix v =
            let acc = ref [] in
            Sorted_ivec.iter_from (fun y -> acc := y :: !acc) v x;
            !acc
          in
          suffix c = suffix raw)
        compressed_kinds)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Radix                                                               *)
(* ------------------------------------------------------------------ *)

(* The counting sort against the stdlib's stable sort, on keys from a
   handful of values (many ties) up to sparse 31-bit ids, so batches
   from one element to a few thousand take one pass or several. *)
let prop_radix_stable =
  QCheck.Test.make ~name:"radix sort = stable sort on keys" ~count:300
    QCheck.(
      pair (int_range 1 30)
        (list_of_size Gen.(int_bound 3000) (int_bound max_int)))
    (fun (bits, raw) ->
      let keys = Array.of_list (List.map (fun k -> k land ((1 lsl bits) - 1)) raw) in
      let n = Array.length keys in
      (* A scrambled permutation (7919 is a prime above [n]), so ties
         must keep an order that is not the index order. *)
      let perm = Array.init n (fun i -> i * 7919 mod n) in
      let expected =
        List.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) (Array.to_list perm)
      in
      Array.to_list (Radix.sort keys perm) = expected)

let test_radix_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Radix.sort: negative key") (fun () ->
      ignore (Radix.sort [| 3; -1 |] [| 0; 1 |]))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vectors"
    [
      ( "dynarray",
        [
          Alcotest.test_case "basic" `Quick test_dynarray_basic;
          Alcotest.test_case "bounds" `Quick test_dynarray_bounds;
          Alcotest.test_case "push_pop" `Quick test_dynarray_push_pop;
          Alcotest.test_case "insert_remove" `Quick test_dynarray_insert_remove;
          Alcotest.test_case "append_copy" `Quick test_dynarray_append_copy;
          Alcotest.test_case "sort_uniq" `Quick test_dynarray_sort_uniq;
          Alcotest.test_case "iter_fold" `Quick test_dynarray_iter_fold;
          Alcotest.test_case "seq_sub" `Quick test_dynarray_seq_sub;
          qt prop_dynarray_model;
        ] );
      ( "sorted_ivec",
        [
          Alcotest.test_case "add_mem" `Quick test_sivec_add_mem;
          Alcotest.test_case "remove" `Quick test_sivec_remove;
          Alcotest.test_case "bounds" `Quick test_sivec_bounds;
          Alcotest.test_case "insert_remove_at" `Quick test_sivec_insert_remove_at;
          Alcotest.test_case "of_sorted_array" `Quick test_sivec_of_sorted_array;
          Alcotest.test_case "iter_from" `Quick test_sivec_iter_from;
          Alcotest.test_case "subset" `Quick test_sivec_subset;
          Alcotest.test_case "search bounds audit" `Quick test_sivec_search_bounds_audit;
          Alcotest.test_case "search_from edges" `Quick test_search_from_edges;
          qt prop_sivec_index_geq_oracle;
          qt prop_sivec_set_model;
          qt prop_sivec_ascending_adds_fast_path;
          qt prop_search_from_oracle;
        ] );
      ( "merge",
        [
          Alcotest.test_case "intersect" `Quick test_merge_intersect;
          Alcotest.test_case "union_diff" `Quick test_merge_union_diff;
          Alcotest.test_case "merge_join" `Quick test_merge_join_callback;
          Alcotest.test_case "arrays" `Quick test_merge_arrays;
          Alcotest.test_case "seq" `Quick test_merge_seq;
          Alcotest.test_case "gallop" `Quick test_merge_gallop;
          Alcotest.test_case "count_adaptive_skewed" `Quick test_count_adaptive_skewed;
          qt prop_intersect;
          qt prop_count_adaptive;
          qt prop_union;
          qt prop_diff;
          qt prop_gallop;
          qt prop_union_many;
          qt prop_merge_join_oracle;
          qt prop_intersect_count_oracle;
          qt prop_merge_diff_oracle;
          Alcotest.test_case "gallop_one_side_tiny" `Quick test_gallop_one_side_tiny;
          Alcotest.test_case "gallop_interleaved_runs" `Quick test_gallop_interleaved_runs;
          qt prop_merge_join_gallop_oracle;
        ] );
      ( "codec",
        [
          Alcotest.test_case "adversarial roundtrips" `Quick test_codec_roundtrip_adversarial;
          Alcotest.test_case "frozen mutations" `Quick test_codec_frozen;
          Alcotest.test_case "stream slices" `Quick test_codec_stream_slices;
          Alcotest.test_case "singleton segments" `Quick test_codec_singleton_segments;
          qt prop_codec_roundtrip;
          qt prop_codec_search_oracle;
        ] );
      ( "radix",
        [
          Alcotest.test_case "negative key" `Quick test_radix_negative;
          qt prop_radix_stable;
        ] );
    ]
