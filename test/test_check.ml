(* Tests for the correctness tooling layer (lib/check): the per-layer
   invariant validators, the differential model-checker against the naive
   reference store, and the source lint. *)

open Hexa
module C = Check
module Sorted_ivec = Vectors.Sorted_ivec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

type id3 = Hexastore.id_triple = { s : int; p : int; o : int }

let t3 s p o = { s; p; o }

let no_violations what vs =
  if vs <> [] then
    Alcotest.failf "%s: expected no violations, got:@.%a" what C.Violation.pp_report vs

let some_violation what vs =
  if vs = [] then Alcotest.failf "%s: expected at least one violation, got none" what

let small_store () =
  let h = Hexastore.create () in
  List.iter
    (fun (s, p, o) -> ignore (Hexastore.add_ids h (t3 s p o)))
    [ (0, 1, 2); (0, 1, 3); (0, 2, 2); (1, 1, 2); (3, 4, 5); (2, 1, 0); (0, 1, 2) ];
  h

(* ------------------------------------------------------------------ *)
(* Invariant validators                                                *)
(* ------------------------------------------------------------------ *)

let test_store_clean () =
  no_violations "small store" (C.store (small_store ()));
  no_violations "empty store" (C.store (Hexastore.create ()))

let test_store_clean_after_deletes () =
  let h = small_store () in
  ignore (Hexastore.remove_ids h (t3 0 1 2));
  ignore (Hexastore.remove_ids h (t3 3 4 5));
  ignore (Hexastore.remove_ids h (t3 9 9 9));
  no_violations "store after deletes" (C.store h);
  (* Drain completely: pruning must leave a perfectly empty store. *)
  List.iter
    (fun tr -> ignore (Hexastore.remove_ids h tr))
    (Hexastore.fold (fun tr l -> tr :: l) h []);
  check_int "drained" 0 (Hexastore.size h);
  no_violations "drained store" (C.store h)

let test_store_lubm_bulk () =
  (* Acceptance: a freshly bulk-loaded LUBM-style workload store passes
     the whole catalogue with an empty violation list. *)
  let cfg = Workloads.Lubm.config ~universities:1 ~departments_per_university:1 () in
  let triples = Workloads.Lubm.generate cfg in
  let h = Hexastore.of_triples triples in
  check_bool "store is non-trivial" true (Hexastore.size h > 1000);
  no_violations "bulk-loaded LUBM store" (C.store h);
  (* Terminal-list sharing is also asserted directly for every spo pair
     — not just through the checker: the same window onto one stream
     (each lookup hands out a fresh slice), as in
     [Hexastore.check_invariant]. *)
  let same_list = Sorted_ivec.shares in
  let shared = ref 0 in
  let spo = Hexastore.spo h in
  let hs = Index.headers_view spo in
  for r = 0 to Sorted_ivec.length hs - 1 do
    let s = Sorted_ivec.get hs r in
    for k = Index.entry_off spo r to Index.entry_off spo (r + 1) - 1 do
      let p = Index.key spo k and ol = Index.run spo k in
      (match Index.find_list (Hexastore.pso h) p s with
      | Some ol' -> check_bool "o-list shared spo/pso" true (same_list ol ol')
      | None -> Alcotest.fail "pso missing twin list");
      (match Hexastore.objects_of_sp h ~s ~p with
      | Some ol' -> check_bool "o-list shared with accessor table" true (same_list ol ol')
      | None -> Alcotest.fail "accessor table missing list");
      incr shared
    done
  done;
  check_bool "visited many shared lists" true (!shared > 100)

(* The seeded corruptions below rewrite one column of an ordering
   ([Index.map_streams]) and audit the result on its own. *)
let corrupt what f idx = Index.map_streams (fun name a -> if name = what then f (Array.copy a) else a) idx

let test_detects_total_corruption () =
  let pso = Hexastore.pso (small_store ()) in
  no_violations "pso" (C.Invariant.index pso);
  (* A twin keeps its per-header triple counts in [tot_off]. *)
  let bumped =
    corrupt "tot_off"
      (fun a ->
        a.(1) <- a.(1) + 2;
        a)
      pso
  in
  some_violation "bumped total" (C.Invariant.index bumped)

let test_detects_bogus_header () =
  let spo = Hexastore.spo (small_store ()) in
  (* The first header's key run made empty: its keys pass to the next. *)
  let emptied =
    corrupt "key_off"
      (fun a ->
        a.(1) <- a.(0);
        a)
      spo
  in
  some_violation "empty vector under a header" (C.Invariant.index emptied)

let test_detects_unshared_list () =
  let h = small_store () in
  (* A twin over a value-equal copy of its owner: every count and query
     still answers correctly, but the 5x space bound is silently gone.
     Only the sharing check can see this. *)
  let owner = Hexastore.spo h and twin = Hexastore.pso h in
  no_violations "twin of its own owner" (C.Invariant.twins ~owner ~twin ());
  let copy = Index.map_streams (fun _ a -> a) owner in
  some_violation "twin reading another copy of the lists" (C.Invariant.twins ~owner:copy ~twin ())

(* Flat twins share their owner's runs by where each run starts in the
   owner's stream: seeded corruptions of a bulk-loaded store's columns,
   on both codecs.  A twin run start shifted by one cell (its window
   moves off its own run), a twin run start at another entry's run, and
   an unsorted owner run must each be reported. *)
let test_detects_flat_twin_corruption () =
  let triples =
    Array.of_list
      (List.concat_map
         (fun s -> List.map (fun p -> t3 s p ((s * p) mod 7)) [ 1; 2; 3 ])
         [ 0; 1; 2; 3; 4; 5 ])
  in
  List.iter
    (fun repr ->
      let name = Sorted_ivec.kind_name repr in
      let h = Hexastore.create ~repr () in
      ignore (Hexastore.add_bulk_ids h (Array.append triples [| t3 0 1 5; t3 0 1 6 |]));
      no_violations (name ^ " flat store") (C.store h);
      let owner = Hexastore.spo h and twin = Hexastore.pso h in
      no_violations (name ^ " flat twin") (C.Invariant.twins ~owner ~twin ());
      let corrupt_entry f =
        Index.map_streams (fun what a -> if what = "list_off" then f a else a) twin
      in
      let shifted =
        corrupt_entry (fun a ->
            let a = Array.copy a in
            a.(0) <- a.(0) + 1;
            a)
      in
      some_violation (name ^ " twin entry shifted off its run")
        (C.Invariant.twins ~owner ~twin:shifted ());
      let crossed =
        corrupt_entry (fun a ->
            let a = Array.copy a in
            let n = Array.length a in
            let x = a.(0) in
            a.(0) <- a.(n - 1);
            a.(n - 1) <- x;
            a)
      in
      some_violation (name ^ " twin entry at another key's run")
        (C.Invariant.twins ~owner ~twin:crossed ());
      (* The first owner run of two or more elements, found by its
         offset in the terminal stream; then two of its elements swap. *)
      let off = ref (-1) and seen = ref 0 in
      for k = 0 to Index.entry_off owner (Index.header_count owner) - 1 do
        let n = Index.run_length owner k in
        if !off < 0 && n >= 2 then off := !seen;
        seen := !seen + n
      done;
      let unsorted =
        Index.map_streams
          (fun what a ->
            if what = "terms" then begin
              let a = Array.copy a in
              let x = a.(!off) in
              a.(!off) <- a.(!off + 1);
              a.(!off + 1) <- x;
              a
            end
            else a)
          owner
      in
      some_violation (name ^ " unsorted owner run") (C.Invariant.index unsorted))
    [ Sorted_ivec.Raw; Sorted_ivec.Packed ]

(* The columns the lean layout added, each corrupted on its own: the
   rank bitmap (a bit for a non-header, a wrong block count), a
   bit-packed offset cell, and a sibling reading its own copy of the
   header level. *)
let test_detects_lean_column_corruption () =
  let h = small_store () in
  let spo = Hexastore.spo h and sop = Hexastore.sop h in
  no_violations "spo" (C.Invariant.index spo);
  let cells = ref [||] in
  ignore (corrupt "rank" (fun a -> cells := a; a) spo);
  check_bool "small dense store keeps a rank bitmap" true (Array.length !cells > 0);
  (* Ids 0..3 are headers; 31 is not. *)
  some_violation "rank bit set for a non-header"
    (C.Invariant.index (corrupt "rank" (fun a -> a.(0) <- a.(0) lxor (1 lsl 31); a) spo));
  some_violation "rank bit cleared for a header"
    (C.Invariant.index (corrupt "rank" (fun a -> a.(0) <- a.(0) land lnot 1; a) spo));
  some_violation "wrong block count"
    (C.Invariant.index (corrupt "rank" (fun a -> a.(0) <- a.(0) + (1 lsl 32); a) spo));
  some_violation "packed run offset made an empty run"
    (C.Invariant.index (corrupt "list_off" (fun a -> a.(1) <- a.(0); a) spo));
  some_violation "packed run offset past the terminal stream"
    (C.Invariant.index
       (corrupt "list_off" (fun a -> a.(Array.length a - 1) <- a.(Array.length a - 1) + 1; a) spo));
  no_violations "spo/sop" (C.Invariant.siblings spo sop);
  some_violation "sibling with its own header level"
    (C.Invariant.siblings spo (Index.map_streams (fun _ a -> a) sop))

(* [map_streams] re-encodes each column in its own codec: the identity
   map of an ordering that owns its header level keeps every stream's
   size, on both codecs (a raw store's offsets stay packed, its payload
   raw). *)
let test_map_streams_keeps_codecs () =
  let cfg = Workloads.Lubm.config ~universities:1 ~departments_per_university:1 () in
  let triples = Workloads.Lubm.generate cfg in
  List.iter
    (fun repr ->
      let h = Hexastore.create ~repr () in
      ignore (Hexastore.add_list h triples);
      List.iter
        (fun (name, idx) ->
          check_int
            (Printf.sprintf "%s %s words" (Sorted_ivec.kind_name repr) name)
            (Index.memory_words idx)
            (Index.memory_words (Index.map_streams (fun _ a -> a) idx)))
        [ ("spo", Hexastore.spo h); ("pos", Hexastore.pos h); ("osp", Hexastore.osp h) ])
    [ Sorted_ivec.Raw; Sorted_ivec.Packed ]

let test_dictionary_bijective () =
  let d = Rdf.Dictionary.create () in
  List.iter
    (fun s -> ignore (Rdf.Dictionary.encode d s))
    [ "a"; "b"; "c"; "a"; "longer string"; "" ];
  no_violations "string dictionary" (C.Invariant.dictionary d);
  let td = Dict.Term_dict.create () in
  List.iter
    (fun t -> ignore (Dict.Term_dict.encode_term td t))
    [
      Rdf.Term.iri "http://example.org/x";
      Rdf.Term.string_literal "x";
      Rdf.Term.blank "x";
      Rdf.Term.iri "http://example.org/x";
    ];
  check_int "spelling-colliding terms get distinct ids" 3 (Dict.Term_dict.size td);
  no_violations "term dictionary" (C.Invariant.term_dict td)

let test_dataset_coherent () =
  let d = Dataset.create () in
  let g = Rdf.Term.iri "http://example.org/g" in
  let tr s p o = Rdf.Triple.make (Rdf.Term.iri s) (Rdf.Term.iri p) (Rdf.Term.iri o) in
  ignore (Dataset.add d (tr "s" "p" "o"));
  ignore (Dataset.add d ~graph:g (tr "s" "p" "o"));
  ignore (Dataset.add d ~graph:g (tr "s2" "p" "o2"));
  no_violations "dataset" (C.Invariant.dataset d)

let test_snapshot_roundtrip () =
  (* Raw id-level stores (empty dictionary) are not snapshotable; the
     validator must say so rather than report opaque corruption. *)
  some_violation "id-only store is not snapshotable"
    (C.Invariant.snapshot_roundtrip (small_store ()));
  let h = Hexastore.create () in
  List.iter
    (fun t ->
      ignore
        (Hexastore.add h
           (Rdf.Triple.make (Rdf.Term.iri t) (Rdf.Term.iri "p") (Rdf.Term.string_literal t))))
    [ "a"; "b"; "c" ];
  no_violations "snapshot round-trip (terms)" (C.Invariant.snapshot_roundtrip h);
  let cfg = Workloads.Lubm.config ~universities:1 ~departments_per_university:1 () in
  let lubm = Hexastore.of_triples (Workloads.Lubm.generate cfg) in
  no_violations "snapshot round-trip (LUBM)" (C.Invariant.snapshot_roundtrip lubm)

(* ------------------------------------------------------------------ *)
(* Differential model-checker                                          *)
(* ------------------------------------------------------------------ *)

let test_model_basic () =
  let m = C.Model.create () in
  check_bool "add" true (C.Model.add m (t3 1 2 3));
  check_bool "re-add" false (C.Model.add m (t3 1 2 3));
  check_bool "add 2" true (C.Model.add m (t3 0 2 3));
  check_int "size" 2 (C.Model.size m);
  check_bool "mem" true (C.Model.mem m (t3 1 2 3));
  check_int "lookup ?s p=2" 2 (C.Model.count m (Pattern.make ~p:2 ()));
  check_bool "remove" true (C.Model.remove m (t3 1 2 3));
  check_bool "re-remove" false (C.Model.remove m (t3 1 2 3));
  check_int "size after remove" 1 (C.Model.size m)

let test_diff_deterministic () =
  let ops =
    C.Diff.
      [
        Insert (t3 0 0 0);
        Insert (t3 0 0 1);
        Insert (t3 0 0 0);
        Query (Pattern.make ~s:0 ());
        Delete (t3 0 0 0);
        Delete (t3 0 0 0);
        Query Pattern.wildcard;
        Insert (t3 1 0 1);
        Query (Pattern.make ~p:0 ~o:1 ());
        Delete (t3 0 0 1);
        Delete (t3 1 0 1);
        Query Pattern.wildcard;
      ]
  in
  match C.Diff.run ops with
  | [] -> ()
  | ds ->
      Alcotest.failf "unexpected divergences:@.%s"
        (String.concat "\n" (List.map C.Diff.divergence_to_string ds))

(* The acceptance-criteria workhorse: >= 1000 random op sequences, each
   diffed against the reference store with the full invariant check after
   every mutation.  QCheck shrinks any failure to a minimal sequence. *)
let prop_differential =
  QCheck.Test.make ~name:"hexastore = reference model on random op sequences" ~count:1000
    (C.Diff.arb_ops ())
    (fun ops ->
      match C.Diff.run ops with
      | [] -> true
      | ds ->
          QCheck.Test.fail_reportf "%s"
            (String.concat "\n" (List.map C.Diff.divergence_to_string ds)))

(* A second generator shape: wider id universe, longer sequences, no
   per-step invariant validation (pure black-box differential run). *)
let prop_differential_wide =
  QCheck.Test.make ~name:"differential (wide id universe)" ~count:200
    (C.Diff.arb_ops ~max_id:12 ~max_len:120 ())
    (fun ops ->
      match C.Diff.run ~validate:false ops with
      | [] -> true
      | ds ->
          QCheck.Test.fail_reportf "%s"
            (String.concat "\n" (List.map C.Diff.divergence_to_string ds)))

(* ------------------------------------------------------------------ *)
(* Delta layer                                                         *)
(* ------------------------------------------------------------------ *)

(* A store frozen mid-delta: populated base, pending inserts AND pending
   tombstones, thresholds high enough that nothing auto-flushes. *)
let mid_delta () =
  let d = Delta.create ~insert_threshold:1000 ~delete_threshold:1000 () in
  ignore
    (Delta.add_bulk_ids d
       (Array.of_list (List.map (fun (s, p, o) -> t3 s p o) [ (0, 1, 2); (0, 1, 3); (1, 1, 2); (3, 4, 5) ])));
  check_bool "buffered insert" true (Delta.add_ids d (t3 2 1 0));
  check_bool "buffered insert 2" true (Delta.add_ids d (t3 0 2 2));
  check_bool "tombstone" true (Delta.remove_ids d (t3 3 4 5));
  d

let test_delta_semantics () =
  let d = mid_delta () in
  check_int "pending inserts" 2 (Delta.pending_inserts d);
  check_int "pending deletes" 1 (Delta.pending_deletes d);
  check_int "merged size" 5 (Delta.size d);
  check_bool "merged mem: base triple" true (Delta.mem_ids d (t3 0 1 2));
  check_bool "merged mem: buffered triple" true (Delta.mem_ids d (t3 2 1 0));
  check_bool "merged mem: tombstoned triple" false (Delta.mem_ids d (t3 3 4 5));
  check_bool "duplicate of buffered insert" false (Delta.add_ids d (t3 2 1 0));
  check_bool "duplicate of base triple" false (Delta.add_ids d (t3 0 1 2));
  check_bool "delete of buffered insert" true (Delta.remove_ids d (t3 2 1 0));
  check_bool "it is gone" false (Delta.mem_ids d (t3 2 1 0));
  check_bool "resurrect tombstoned triple" true (Delta.add_ids d (t3 3 4 5));
  check_bool "tombstone cancelled" true (Delta.mem_ids d (t3 3 4 5));
  check_int "no tombstones left" 0 (Delta.pending_deletes d);
  check_bool "double delete" true (Delta.remove_ids d (t3 3 4 5));
  check_bool "re-delete fails" false (Delta.remove_ids d (t3 3 4 5))

let test_delta_frozen_mid_delta () =
  (* Acceptance criterion: zero violations on a store frozen mid-delta —
     both the base's own Check.store and the full delta coherence check. *)
  let d = mid_delta () in
  check_bool "delta is non-empty" true (Delta.pending_inserts d + Delta.pending_deletes d > 0);
  no_violations "Check.store on mid-delta base" (C.store (Delta.base d));
  no_violations "Check.delta mid-delta" (C.delta d);
  Delta.flush d;
  check_int "flush drains" 0 (Delta.pending_inserts d + Delta.pending_deletes d);
  no_violations "Check.delta after flush" (C.delta d);
  Delta.compact d;
  no_violations "Check.delta after compact" (C.delta d)

let test_delta_auto_flush () =
  let d = Delta.create ~insert_threshold:3 ~delete_threshold:2 () in
  ignore (Delta.add_ids d (t3 0 0 0));
  ignore (Delta.add_ids d (t3 0 0 1));
  check_int "below threshold: still buffered" 2 (Delta.pending_inserts d);
  ignore (Delta.add_ids d (t3 0 0 2));
  check_int "threshold crossed: auto-flushed" 0 (Delta.pending_inserts d);
  check_int "base holds the batch" 3 (Hexastore.size (Delta.base d));
  ignore (Delta.remove_ids d (t3 0 0 0));
  check_int "one tombstone buffered" 1 (Delta.pending_deletes d);
  ignore (Delta.remove_ids d (t3 0 0 1));
  check_int "delete threshold crossed" 0 (Delta.pending_deletes d);
  check_int "merged size" 1 (Delta.size d);
  no_violations "after auto-flushes" (C.delta d)

let test_delta_detects_corruption () =
  (* Sneak a buffered insert into the base behind the delta's back: the
     no-triple-in-both rule must fire. *)
  let d = mid_delta () in
  Delta.iter_pending_inserts (fun tr -> ignore (Hexastore.add_ids (Delta.base d) tr)) d;
  some_violation "insert buffered and in base" (C.delta d);
  (* And a tombstone for a triple the base never held. *)
  let d2 = mid_delta () in
  Delta.iter_pending_deletes (fun tr -> ignore (Hexastore.remove_ids (Delta.base d2) tr)) d2;
  some_violation "tombstone without base triple" (C.delta d2)

let test_delta_diff_deterministic () =
  let ops =
    C.Diff.
      [
        Insert (t3 0 0 0);
        Insert (t3 0 0 1);
        Flush;
        Insert (t3 0 0 0);
        Delete (t3 0 0 1);
        Query Pattern.wildcard;
        Compact;
        Insert (t3 1 0 1);
        Delete (t3 0 0 0);
        Query (Pattern.make ~p:0 ());
        Flush;
        Query Pattern.wildcard;
      ]
  in
  match C.Diff.run_delta ~insert_threshold:2 ~delete_threshold:2 ops with
  | [] -> ()
  | ds ->
      Alcotest.failf "unexpected divergences:@.%s"
        (String.concat "\n" (List.map C.Diff.divergence_to_string ds))

(* The delta-layer acceptance workhorse: >= 1000 random sequences that
   interleave flush/compact with mutations and queries, each run with
   generator-drawn auto-flush thresholds and the full Invariant.delta
   validation (flushed-clone cross-check included) after every mutation. *)
let prop_delta_differential =
  QCheck.Test.make ~name:"delta layer = reference model (flush/compact interleaved)" ~count:1000
    (QCheck.triple (QCheck.int_range 1 8) (QCheck.int_range 1 6) (C.Diff.arb_delta_ops ()))
    (fun (insert_threshold, delete_threshold, ops) ->
      match C.Diff.run_delta ~insert_threshold ~delete_threshold ops with
      | [] -> true
      | ds ->
          QCheck.Test.fail_reportf "thresholds (%d,%d): %s" insert_threshold delete_threshold
            (String.concat "\n" (List.map C.Diff.divergence_to_string ds)))

(* Wider universe, longer runs, default (never-firing) thresholds, no
   per-step validation: a pure black-box differential soak that keeps
   large buffers alive across many queries. *)
let prop_delta_differential_wide =
  QCheck.Test.make ~name:"delta differential (wide id universe)" ~count:200
    (C.Diff.arb_delta_ops ~max_id:12 ~max_len:120 ())
    (fun ops ->
      match C.Diff.run_delta ~validate:false ops with
      | [] -> true
      | ds ->
          QCheck.Test.fail_reportf "%s"
            (String.concat "\n" (List.map C.Diff.divergence_to_string ds)))

(* The term-filed buffers over a tiny id universe (values 0..3 in every
   position), so buckets collide and dead entries pile up until they are
   dropped.  A step is one mutation, a burst of mutations with no read
   between them (entries leave the buffer before they were ever filed),
   a flush or a compaction.  Over a base bulk-loaded from the first
   triples, removals tombstone and re-adds resurrect.  After every step
   the delta must pass [Invariant.delta], and every merged read — [iter],
   ranged [seek_sorted] runs on each free position and [count] — must
   equal [Check.Model] over the reference set, order included. *)
module Tset = Set.Make (struct
  type t = id3

  let compare = compare
end)

type buffer_step =
  | Mutate of bool * id3
  | Burst of (bool * id3) list
  | Flush_step
  | Compact_step

let arb_buffer_steps =
  let open QCheck.Gen in
  let tr = map3 t3 (int_bound 3) (int_bound 3) (int_bound 3) in
  let mutation = pair bool tr in
  let step =
    frequency
      [ (8, map (fun (a, t) -> Mutate (a, t)) mutation);
        (3, map (fun l -> Burst l) (list_size (int_range 2 6) mutation));
        (1, return Flush_step);
        (1, return Compact_step) ]
  in
  let print_step = function
    | Mutate (a, t) -> Printf.sprintf "%s(%d,%d,%d)" (if a then "+" else "-") t.s t.p t.o
    | Burst l -> Printf.sprintf "burst of %d" (List.length l)
    | Flush_step -> "flush"
    | Compact_step -> "compact"
  in
  QCheck.make
    ~print:(fun (base, steps) ->
      Printf.sprintf "base %d triples; %s" (List.length base)
        (String.concat "; " (List.map print_step steps)))
    (pair (list_size (int_bound 12) tr) (list_size (int_range 1 40) step))

(* Every pattern binding each position to nothing, 0 or 2. *)
let tiny_patterns =
  let vals = [ None; Some 0; Some 2 ] in
  List.concat_map
    (fun s -> List.concat_map (fun p -> List.map (fun o -> { Pattern.s; p; o }) vals) vals)
    vals

let buffer_reads_agree d model =
  let m = C.Model.create () in
  Tset.iter (fun tr -> ignore (C.Model.add m tr)) model;
  List.for_all
    (fun (pat : Pattern.t) ->
      let want ord = List.sort (Ordering.compare_triples ord) (C.Model.lookup m pat) in
      let scans_agree pos =
        Pattern.value_at pat pos <> None
        ||
        match Delta.seek_sorted d pat pos with
        | Some (ord, run) ->
            let value (tr : id3) = match pos with Pattern.Subj -> tr.s | Pred -> tr.p | Obj -> tr.o in
            List.for_all
              (fun (lo, hi) ->
                C.Model.pushed (run lo hi)
                = List.filter (fun tr -> lo <= value tr && value tr < hi) (want ord))
              [ (0, 1); (2, 3); (0, max_int); (min_int, max_int) ]
        | None -> false
      in
      C.Model.pushed (Delta.iter d pat) = want (Ordering.for_shape (Pattern.shape pat))
      && Delta.count d pat = List.length (C.Model.lookup m pat)
      && List.for_all scans_agree [ Pattern.Subj; Pattern.Pred; Pattern.Obj ])
    tiny_patterns

let prop_delta_buffers =
  QCheck.Test.make ~name:"term-filed buffers = reference set (tiny universe)" ~count:200
    arb_buffer_steps (fun (base, steps) ->
      let d = Delta.create ~insert_threshold:1000 ~delete_threshold:1000 () in
      ignore (Delta.add_bulk_ids d (Array.of_list base));
      let model = ref (Tset.of_list base) in
      let mutate (add, tr) =
        if add then ignore (Delta.add_ids d tr) else ignore (Delta.remove_ids d tr);
        model := if add then Tset.add tr !model else Tset.remove tr !model
      in
      List.for_all
        (fun step ->
          (match step with
          | Mutate (a, t) -> mutate (a, t)
          | Burst l -> List.iter mutate l
          | Flush_step -> Delta.flush d
          | Compact_step -> Delta.compact d);
          (match C.delta d with
          | [] -> ()
          | vs -> QCheck.Test.fail_reportf "%a" C.Violation.pp_report vs);
          buffer_reads_agree d !model)
        steps)

(* A pin taken while the buffers hold entries not yet filed under their
   terms: the view files its own copy, so later writes (and the drains
   they cause on the live delta) never reach it, and two [Query.Par]
   lanes reading that one view at once see the same answers. *)
let test_delta_pin_unfiled () =
  let d = Delta.create ~insert_threshold:10_000 ~delete_threshold:10_000 () in
  ignore (Delta.add_bulk_ids d (Array.init 200 (fun i -> t3 (i mod 50) (i mod 3) (i mod 7))));
  for i = 0 to 99 do
    ignore (Delta.add_ids d (t3 (100 + i) (i mod 3) (i mod 7)));
    if i mod 4 = 0 then ignore (Delta.remove_ids d (t3 (i mod 50) (i mod 3) (i mod 7)))
  done;
  let view, unpin = Delta.pin d in
  Fun.protect ~finally:unpin (fun () ->
      let pats = Pattern.wildcard :: List.init 7 (fun o -> Pattern.make ~o ()) in
      let pats = pats @ List.init 3 (fun p -> Pattern.make ~p ~o:p ()) in
      let answers () =
        List.map (fun pat -> (C.Model.pushed (Delta.iter view pat), Delta.count view pat)) pats
      in
      let before = answers () in
      for i = 0 to 299 do
        ignore (Delta.add_ids d (t3 (500 + i) (i mod 3) (i mod 7)));
        if i mod 3 = 0 then ignore (Delta.remove_ids d (t3 (100 + (i / 3)) ((i / 3) mod 3) ((i / 3) mod 7)));
        if i mod 50 = 0 then ignore (Delta.count d (Pattern.make ~o:0 ()))
      done;
      check_bool "view unchanged by later writes" true (answers () = before);
      let lanes = Query.Par.with_domains 2 (fun () -> Query.Par.run [| answers; answers |]) in
      check_bool "lane 0 = sequential" true (lanes.(0) = before);
      check_bool "lane 1 = lane 0" true (lanes.(1) = lanes.(0)));
  no_violations "live delta after the pin" (C.delta d)

(* Dead entries must not outlive their use.  10k staged triples share one
   predicate and one object, so all of them land in the same two
   buckets: unstaging them one by one (a read after each) must drop the
   dead entries, and churning a triple through the buffer next to a
   live one — with and without reads between — must not grow it. *)
let test_delta_memory_bound () =
  let d = Delta.create ~insert_threshold:100_000 ~delete_threshold:100_000 () in
  let empty = Delta.memory_words d in
  let tr i = t3 (10 + i) 1 2 in
  for i = 0 to 9_999 do
    ignore (Delta.add_ids d (tr i))
  done;
  check_int "all staged" 10_000 (Delta.count d (Pattern.make ~p:1 ~o:2 ()));
  for i = 0 to 9_999 do
    ignore (Delta.remove_ids d (tr i));
    ignore (Delta.count d (Pattern.make ~p:1 ()))
  done;
  check_int "all unstaged" 0 (Delta.pending_inserts d);
  check_bool "unstaging returns to the empty footprint" true
    (Delta.memory_words d - empty <= 64);
  ignore (Delta.add_ids d (t3 0 1 2));
  ignore (Delta.count d (Pattern.make ~p:1 ()));
  let anchored = Delta.memory_words d in
  for i = 0 to 9_999 do
    ignore (Delta.add_ids d (tr i));
    if i mod 2 = 0 then ignore (Delta.count d (Pattern.make ~o:2 ()));
    ignore (Delta.remove_ids d (tr i));
    if i mod 3 = 0 then ignore (Delta.count d (Pattern.make ~p:1 ~o:2 ()))
  done;
  ignore (Delta.count d (Pattern.make ~p:1 ()));
  check_int "anchor still staged" 1 (Delta.count d (Pattern.make ~p:1 ~o:2 ()));
  check_bool "churn next to a live entry stays bounded" true
    (Delta.memory_words d - anchored <= 64);
  for i = 0 to 9_999 do
    ignore (Delta.add_ids d (tr i));
    ignore (Delta.remove_ids d (tr i))
  done;
  check_bool "churn with no read between stays bounded" true
    (Delta.memory_words d - anchored <= 64)

(* [Delta.memory_words] counts the buffers exactly: staging grows it by
   what the runtime reaches from the delta.  Ids stay raw (the dictionary
   never changes) and the test keeps no reference to the staged triples,
   so every word the staging adds is reachable only through the delta. *)
let test_delta_memory_exact () =
  let d = Delta.create ~insert_threshold:100_000 ~delete_threshold:100_000 () in
  ignore (Delta.add_bulk_ids d (Array.init 64 (fun i -> t3 i (i mod 5) (i mod 9))));
  let words () = (Delta.memory_words d, Obj.reachable_words (Obj.repr d)) in
  let m0, r0 = words () in
  let agree what =
    let m, r = words () in
    check_int what (r - r0) (m - m0)
  in
  for i = 0 to 299 do
    ignore (Delta.add_ids d (t3 (100 + i) (i mod 4) (i mod 11)))
  done;
  agree "unfiled inserts";
  ignore (Delta.count d (Pattern.make ~p:1 ()));
  agree "filed inserts";
  for i = 0 to 63 do
    if i mod 2 = 0 then ignore (Delta.remove_ids d (t3 i (i mod 5) (i mod 9)))
  done;
  for i = 0 to 299 do
    if i mod 3 <> 0 then ignore (Delta.remove_ids d (t3 (100 + i) (i mod 4) (i mod 11)))
  done;
  agree "tombstones and dead entries";
  ignore (Delta.count d (Pattern.make ~o:3 ()));
  agree "after the drain"

(* ------------------------------------------------------------------ *)
(* The sorted level                                                    *)
(* ------------------------------------------------------------------ *)

let base_triples d = List.rev (Hexastore.fold (fun tr acc -> tr :: acc) (Delta.base d) [])

(* Over a base of 800 triples, an auto-flush merges its batch into the
   level and leaves the base as it was; pending tombstones cancel level
   inserts; the level migrates only once it would pass an eighth of the
   base, and on [flush] and [compact]. *)
let test_delta_level_migration () =
  let d = Delta.of_base ~insert_threshold:8 ~delete_threshold:4 (Hexastore.create ()) in
  ignore (Delta.add_bulk_ids d (Array.init 800 (fun i -> t3 i (i mod 7) (i mod 13))));
  let before = base_triples d in
  for i = 0 to 7 do
    ignore (Delta.add_ids d (t3 (1000 + i) 1 1))
  done;
  check_int "auto-flush drained the buffer" 0 (Delta.pending_inserts d);
  check_int "the level holds the batch" 8 (Delta.level_size d);
  check_bool "the base is untouched" true (base_triples d = before);
  List.iter
    (fun tr -> check_bool "remove" true (Delta.remove_ids d tr))
    [ t3 0 0 0; t3 1 1 1; t3 1000 1 1; t3 1001 1 1 ];
  check_int "two tombstones in, two level inserts cancelled" 8 (Delta.level_size d);
  check_bool "the base is still untouched" true (base_triples d = before);
  check_bool "a level tombstone hides its base triple" false (Delta.mem_ids d (t3 0 0 0));
  check_bool "resurrect a level-tombstoned triple" true (Delta.add_ids d (t3 0 0 0));
  check_bool "resurrected" true (Delta.mem_ids d (t3 0 0 0));
  check_int "merged size" 805 (Delta.size d);
  no_violations "level after merges" (C.delta d);
  (* Grow the level eight inserts at a time: it stays in front of the
     base while it is at most an eighth of it, then migrates whole. *)
  let migrated = ref false and i = ref 2000 in
  while not !migrated do
    let level = Delta.level_size d and pending = Delta.pending_inserts d in
    ignore (Delta.add_ids d (t3 !i 2 2));
    incr i;
    if Delta.pending_inserts d = 0 then
      if Delta.level_size d = 0 then begin
        migrated := true;
        check_bool "migrated only past an eighth" true ((level + pending + 1) * 8 > 800);
        check_int "the base took the level" (Delta.size d) (Hexastore.size (Delta.base d))
      end
      else begin
        check_bool "kept below an eighth" true (Delta.level_size d * 8 <= 800);
        check_bool "a level merge leaves the base alone" true (base_triples d = before)
      end
  done;
  no_violations "after the migration" (C.delta d);
  for i = 0 to 7 do
    ignore (Delta.add_ids d (t3 (5000 + i) 3 3))
  done;
  check_int "a new level" 8 (Delta.level_size d);
  Delta.flush d;
  check_int "flush migrates" 0 (Delta.level_size d);
  check_int "base = merged view" (Delta.size d) (Hexastore.size (Delta.base d));
  for i = 0 to 7 do
    ignore (Delta.remove_ids d (t3 (5000 + i) 3 3))
  done;
  check_int "tombstones in the level" 8 (Delta.level_size d);
  Delta.compact d;
  check_int "compact migrates" 0 (Delta.level_size d);
  check_int "base = merged view after compact" (Delta.size d) (Hexastore.size (Delta.base d));
  no_violations "after flush and compact" (C.delta d)

(* A delta with inserts and tombstones in its level, and its osp slot
   filled by a read. *)
let leveled_delta () =
  let d = Delta.of_base ~insert_threshold:4 ~delete_threshold:2 (Hexastore.create ()) in
  ignore (Delta.add_bulk_ids d (Array.init 200 (fun i -> t3 (i mod 40) (i mod 3) (i mod 17))));
  List.iter (fun i -> ignore (Delta.add_ids d (t3 (100 + i) (i mod 3) (20 - i)))) [ 0; 1; 2; 3 ];
  List.iter (fun i -> ignore (Delta.remove_ids d (t3 (i mod 40) (i mod 3) (i mod 17)))) [ 5; 6 ];
  ignore (Delta.count d (Pattern.make ~o:3 ()));
  check_int "level: four inserts, two tombstones" 6 (Delta.level_size d);
  no_violations "clean level" (C.delta d);
  d

let test_delta_detects_level_corruption () =
  let d = leveled_delta () in
  let ins = Delta.level_run d ~tombstones:false Ordering.Spo in
  ignore (Hexastore.add_ids (Delta.base d) (t3 ins.(0) ins.(1) ins.(2)));
  some_violation "level insert already in the base" (C.delta d);
  let d = leveled_delta () in
  let osp = Delta.level_run d ~tombstones:false Ordering.Osp in
  let last = Array.length osp - 3 in
  for j = 0 to 2 do
    let x = osp.(j) in
    osp.(j) <- osp.(last + j);
    osp.(last + j) <- x
  done;
  some_violation "unsorted level column" (C.delta d);
  let d = leveled_delta () in
  let del = Delta.level_run d ~tombstones:true Ordering.Spo in
  ignore (Hexastore.remove_ids (Delta.base d) (t3 del.(0) del.(1) del.(2)));
  some_violation "level tombstone without its base triple" (C.delta d)

(* [Delta.memory_words] counts the level exactly too: its arrays, its
   slots and the runs reads fill them with. *)
let test_delta_level_memory_exact () =
  let d = Delta.of_base ~insert_threshold:16 ~delete_threshold:8 (Hexastore.create ()) in
  ignore (Delta.add_bulk_ids d (Array.init 400 (fun i -> t3 i (i mod 5) (i mod 9))));
  let words () = (Delta.memory_words d, Obj.reachable_words (Obj.repr d)) in
  let m0, r0 = words () in
  let own () = Delta.memory_words d - Hexastore.memory_words (Delta.base d) in
  let own0 = own () in
  let agree what =
    let m, r = words () in
    check_int what (r - r0) (m - m0)
  in
  for i = 0 to 39 do
    ignore (Delta.add_ids d (t3 (1000 + i) (i mod 4) (i mod 11)))
  done;
  check_bool "a level" true (Delta.level_size d > 0);
  agree "level inserts, pending inserts";
  ignore (Delta.count d (Pattern.make ~o:3 ()));
  ignore (Delta.count d (Pattern.make ~p:1 ~o:3 ()));
  agree "filled slots";
  for i = 0 to 19 do
    ignore (Delta.remove_ids d (t3 (2 * i) ((2 * i) mod 5) ((2 * i) mod 9)));
    ignore (Delta.remove_ids d (t3 (1000 + i) (i mod 4) (i mod 11)))
  done;
  agree "tombstones and cancellations";
  Delta.flush d;
  check_int "migrated: nothing left but the base" own0 (own ())

(* The level's differential: random writes, flushes, compactions and
   pins on a delta with thresholds of 1 to 3 over a base of 30 to 60
   triples, so auto-flushes merge into the level, cancel level entries
   and migrate it, all often.  After every step each read path equals
   [Check.Model]: [iter] (contents and the serving ordering's order),
   [count] and [mem]; [seek_sorted] probed for single keys in
   descending order; the ranges of [scan_bounds] at 1 to 4 parts, each
   run on its own cursor, concatenated.  A pin step hands the view to a second
   domain, which reads it while the writer goes on writing (level
   merges do not wait for it; a migration waits for its release). *)
type level_step =
  | Write of bool * id3
  | Flush_level
  | Compact_level
  | Pin_across of (bool * id3) list

let arb_level_steps =
  let open QCheck.Gen in
  let tr = map3 t3 (int_bound 4) (int_bound 2) (int_bound 4) in
  let write = pair bool tr in
  let step =
    frequency
      [ (12, map (fun (a, t) -> Write (a, t)) write);
        (1, return Flush_level);
        (1, return Compact_level);
        (2, map (fun l -> Pin_across l) (list_size (int_range 1 8) write)) ]
  in
  let print_step = function
    | Write (a, t) -> Printf.sprintf "%s(%d,%d,%d)" (if a then "+" else "-") t.s t.p t.o
    | Flush_level -> "flush"
    | Compact_level -> "compact"
    | Pin_across l -> Printf.sprintf "pin across %d writes" (List.length l)
  in
  QCheck.make
    ~print:(fun ((ti, td), base, steps) ->
      Printf.sprintf "thresholds %d/%d; base %d triples; %s" ti td (List.length base)
        (String.concat "; " (List.map print_step steps)))
    (triple (pair (int_range 1 3) (int_range 1 3)) (list_size (int_range 30 60) tr)
       (list_size (int_range 1 40) step))

let level_patterns =
  let vals = [ None; Some 0; Some 3 ] in
  List.concat_map
    (fun s -> List.concat_map (fun p -> List.map (fun o -> { Pattern.s; p; o }) vals) vals)
    vals

(* [None] when every read of [d] agrees with the model's [expected]
   set, else what disagreed first. *)
let level_reads_disagree d expected =
  let matching pat = List.filter (Pattern.matches pat) expected in
  let with_value (pat : Pattern.t) pos k =
    match pos with
    | Pattern.Subj -> { pat with s = Some k }
    | Pattern.Pred -> { pat with p = Some k }
    | Pattern.Obj -> { pat with o = Some k }
  in
  let in_order ord l = List.stable_sort (Ordering.compare_triples ord) l in
  let failures =
    List.concat_map
      (fun (pat : Pattern.t) ->
        let name what = Format.asprintf "%s %a" what Pattern.pp pat in
        let want = in_order (Ordering.for_shape (Pattern.shape pat)) (matching pat) in
        let pushed = ref [] in
        Delta.iter d pat (fun s p o -> pushed := t3 s p o :: !pushed);
        let free =
          List.filter (fun pos -> Pattern.value_at pat pos = None) [ Pattern.Subj; Pattern.Pred; Pattern.Obj ]
        in
        let scans pos =
          match Delta.seek_sorted d pat pos with
          | Some (ord, run) ->
              let probes =
                List.for_all
                  (fun k ->
                    C.Model.pushed (run k (k + 1)) = in_order ord (matching (with_value pat pos k)))
                  [ 4; 3; 2; 1; 0 ]
              in
              (* One cursor per range, as the executor's parallel tasks
                 open them. *)
              let splits =
                List.for_all
                  (fun parts ->
                    let bounds = Delta.scan_bounds d pat pos ~parts in
                    let n = Array.length bounds in
                    let range i =
                      match Delta.seek_sorted d pat pos with
                      | None -> []
                      | Some (_, run) ->
                          C.Model.pushed
                            (run
                               (if i = 0 then min_int else bounds.(i - 1))
                               (if i = n then max_int else bounds.(i)))
                    in
                    n < parts && List.concat (List.init (n + 1) range) = in_order ord (matching pat))
                  [ 1; 2; 3; 4 ]
              in
              (if probes then [] else [ name "seek_sorted" ])
              @ if splits then [] else [ name "scan_bounds ranges" ]
          | None -> [ name "sorted scan offer" ]
        in
        (if List.rev !pushed = want then [] else [ name "iter" ])
        @ (if Delta.count d pat = List.length want then [] else [ name "count" ])
        @ List.concat_map scans free)
      level_patterns
  in
  (* Every triple of the generator's universe. *)
  let universe =
    List.concat_map
      (fun s -> List.concat_map (fun p -> List.init 5 (fun o -> t3 s p o)) [ 0; 1; 2 ])
      [ 0; 1; 2; 3; 4 ]
  in
  let mem_fail = List.exists (fun tr -> Delta.mem_ids d tr <> List.mem tr expected) universe in
  match (failures, mem_fail) with [], false -> None | [], true -> Some "mem" | f :: _, _ -> Some f

let prop_delta_level repr =
  QCheck.Test.make
    ~name:(Printf.sprintf "sorted level = reference model (%s base)" (Sorted_ivec.kind_name repr))
    ~count:100 arb_level_steps
    (fun ((ti, td), base, steps) ->
      let d = Delta.of_base ~insert_threshold:ti ~delete_threshold:td (Hexastore.create ~repr ()) in
      ignore (Delta.add_bulk_ids d (Array.of_list base));
      let model = C.Model.create () in
      List.iter (fun tr -> ignore (C.Model.add model tr)) base;
      let write (add, tr) =
        let got = if add then Delta.add_ids d tr else Delta.remove_ids d tr in
        let want = if add then C.Model.add model tr else C.Model.remove model tr in
        if got <> want then QCheck.Test.fail_reportf "write returned %b, model %b" got want
      in
      let check what d expected =
        match level_reads_disagree d expected with
        | None -> ()
        | Some f -> QCheck.Test.fail_reportf "%s: %s disagrees with the model" what f
      in
      List.iter
        (fun step ->
          (match step with
          | Write (a, t) -> write (a, t)
          | Flush_level -> Delta.flush d
          | Compact_level -> Delta.compact d
          | Pin_across writes ->
              let view, unpin = Delta.pin d in
              let expected = C.Model.to_list model in
              let go = Atomic.make false in
              let reader =
                Domain.spawn (fun () ->
                    while not (Atomic.get go) do
                      Domain.cpu_relax ()
                    done;
                    Fun.protect ~finally:unpin (fun () -> level_reads_disagree view expected))
              in
              Atomic.set go true;
              List.iter write writes;
              (match Domain.join reader with
              | None -> ()
              | Some f -> QCheck.Test.fail_reportf "pinned view: %s moved under the pin" f);
              if Delta.pins d <> 0 then QCheck.Test.fail_reportf "%d pins left" (Delta.pins d));
          (match C.delta d with
          | [] -> ()
          | vs -> QCheck.Test.fail_reportf "%a" C.Violation.pp_report vs);
          check "live delta" d (C.Model.to_list model))
        steps;
      true)

(* The generator does reach every level event: merges, cancellations
   and migrations, in the same run. *)
let test_delta_level_events () =
  let d = Delta.of_base ~insert_threshold:2 ~delete_threshold:2 (Hexastore.create ()) in
  ignore (Delta.add_bulk_ids d (Array.init 48 (fun i -> t3 (i mod 5) (i mod 3) (i / 15))));
  let merges = ref 0 and migrations = ref 0 and cancels = ref 0 in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 400 do
    let tr = t3 (Random.State.int rng 5) (Random.State.int rng 3) (Random.State.int rng 5) in
    let level = Delta.level_size d and pending = Delta.pending_inserts d + Delta.pending_deletes d in
    ignore (if Random.State.bool rng then Delta.add_ids d tr else Delta.remove_ids d tr);
    if Delta.pending_inserts d + Delta.pending_deletes d < pending then
      if Delta.level_size d = 0 then incr migrations
      else begin
        incr merges;
        if Delta.level_size d < level + pending then incr cancels
      end
  done;
  check_bool "level merges" true (!merges > 0);
  check_bool "cancellations" true (!cancels > 0);
  check_bool "migrations" true (!migrations > 0);
  no_violations "after the run" (C.delta d)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

(* Seeded sources are assembled from fragments so that the linter —
   which scans this repo's lib/, not test/ — could never be confused by
   this file, and so the clean-source checks below stay honest. *)
let bad_magic = "let f x = Obj." ^ "magic x\n"
let bad_printf = "let g () = Printf." ^ "printf \"%d\" 3\n"
let bad_catch = "let h () = try () with _ " ^ "-> ()\n"
let bad_catch_multiline = "let h () = try () with\n  _\n  " ^ "-> ()\n"
let bad_clock = "let t () = Unix." ^ "gettimeofday ()\n"
let bad_clock_sys = "let t () = Sys." ^ "time ()\n"

let count_rule vs = List.length vs

let test_lint_seeded_violations () =
  check_int "obj-magic" 1 (count_rule (C.Lint.scan_source ~path:"x.ml" bad_magic));
  check_int "printf" 1 (count_rule (C.Lint.scan_source ~path:"x.ml" bad_printf));
  check_int "catch-all" 1 (count_rule (C.Lint.scan_source ~path:"x.ml" bad_catch));
  check_int "catch-all across lines" 1
    (count_rule (C.Lint.scan_source ~path:"x.ml" bad_catch_multiline));
  check_int "all three content rules" 3
    (count_rule (C.Lint.scan_source ~path:"x.ml" (bad_magic ^ bad_printf ^ bad_catch)))

let test_lint_raw_clock () =
  check_int "raw gettimeofday" 1 (count_rule (C.Lint.scan_source ~path:"lib/core/x.ml" bad_clock));
  check_int "raw Sys clock" 1 (count_rule (C.Lint.scan_source ~path:"lib/core/x.ml" bad_clock_sys));
  (* The wrapping layer itself is exempt — that is where the clock lives. *)
  check_int "telemetry dir exempt" 0
    (count_rule (C.Lint.scan_source ~path:"lib/telemetry/clock.ml" bad_clock));
  (* Sys.time the token, not e.g. Sys.timestamp or My_sys.time. *)
  check_int "no false positives on longer names" 0
    (count_rule
       (C.Lint.scan_source ~path:"x.ml" ("let a = Sys." ^ "timestamp\nlet b = My_" ^ "sys.time\n")));
  check_int "clock in comment ignored" 0
    (count_rule (C.Lint.scan_source ~path:"x.ml" ("(* Unix." ^ "gettimeofday *)\nlet x = 1\n")))

let bad_probe = "let f v o = Sorted_ivec." ^ "mem v o\n"
let probe_waiver = "(* lint: " ^ "allow query-probe *)"

let test_lint_query_probe () =
  check_int "probe in query dir" 1
    (count_rule (C.Lint.scan_source ~path:"lib/query/x.ml" bad_probe));
  (* The rule is scoped: the same probe elsewhere is the normal API. *)
  check_int "probe outside query dir" 0
    (count_rule (C.Lint.scan_source ~path:"lib/core/x.ml" bad_probe));
  check_int "same-line waiver" 0
    (count_rule
       (C.Lint.scan_source ~path:"lib/query/x.ml"
          ("let f v o = Sorted_ivec." ^ "mem v o  " ^ probe_waiver ^ "\n")));
  check_int "line-above waiver" 0
    (count_rule
       (C.Lint.scan_source ~path:"lib/query/x.ml" (probe_waiver ^ "\n" ^ bad_probe)));
  check_int "waiver does not reach later lines" 1
    (count_rule
       (C.Lint.scan_source ~path:"lib/query/x.ml"
          (probe_waiver ^ "\nlet a = 1\n" ^ bad_probe)));
  check_int "probe in comment ignored" 0
    (count_rule
       (C.Lint.scan_source ~path:"lib/query/x.ml"
          ("(* Sorted_ivec." ^ "mem *)\nlet x = 1\n")))

let test_lint_clean_sources () =
  let clean =
    "let f x = x + 1\n"
    ^ "let g ppf = Format.fprintf ppf \"ok\"\n"
    ^ "let h () = try () with Not_found -> ()\n"
    ^ "let i () = try () with _e -> ()  (* named wildcard is allowed *)\n"
  in
  check_int "clean source" 0 (count_rule (C.Lint.scan_source ~path:"x.ml" clean));
  (* Occurrences inside comments and strings must not fire. *)
  let commented = "(* never use Obj." ^ "magic or Printf." ^ "printf or with _ " ^ "-> *)\nlet x = 1\n" in
  check_int "patterns in comments" 0 (count_rule (C.Lint.scan_source ~path:"x.ml" commented));
  let stringed = "let doc = \"Obj." ^ "magic with _ " ^ "->\"\n" in
  check_int "patterns in strings" 0 (count_rule (C.Lint.scan_source ~path:"x.ml" stringed))

let test_lint_missing_mli () =
  let dir = Filename.temp_file "lintdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      write "a.ml" "let x = 1\n";
      some_violation "ml without mli" (C.Lint.scan_dir dir);
      write "a.mli" "val x : int\n";
      no_violations "ml with mli" (C.Lint.scan_dir dir))

let test_lint_repo_tree_is_clean () =
  (* The gate the @lint alias runs, executed in-process on the real lib/
     tree (runtest executes in the build context where lib/ sources are
     not present, so locate them from the workspace root if available). *)
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "lib"))
      [ "."; ".."; "../.."; "../../.." ]
  in
  match root with
  | None -> ()  (* sandboxed run without sources; the @lint alias covers it *)
  | Some r -> no_violations "repo lib/ tree" (C.Lint.scan_dir (Filename.concat r "lib"))

let () =
  Alcotest.run "check"
    [
      ( "invariant",
        [
          Alcotest.test_case "clean stores" `Quick test_store_clean;
          Alcotest.test_case "clean after deletes" `Quick test_store_clean_after_deletes;
          Alcotest.test_case "bulk-loaded LUBM store" `Quick test_store_lubm_bulk;
          Alcotest.test_case "detects total corruption" `Quick test_detects_total_corruption;
          Alcotest.test_case "detects bogus header" `Quick test_detects_bogus_header;
          Alcotest.test_case "detects unshared list" `Quick test_detects_unshared_list;
          Alcotest.test_case "detects flat twin corruption" `Quick test_detects_flat_twin_corruption;
          Alcotest.test_case "detects lean column corruption" `Quick test_detects_lean_column_corruption;
          Alcotest.test_case "map_streams keeps codecs" `Quick test_map_streams_keeps_codecs;
          Alcotest.test_case "dictionary bijectivity" `Quick test_dictionary_bijective;
          Alcotest.test_case "dataset coherence" `Quick test_dataset_coherent;
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
        ] );
      ( "model-checker",
        [
          Alcotest.test_case "reference model" `Quick test_model_basic;
          Alcotest.test_case "deterministic sequence" `Quick test_diff_deterministic;
          qt prop_differential;
          qt prop_differential_wide;
        ] );
      ( "delta",
        [
          Alcotest.test_case "buffered mutation semantics" `Quick test_delta_semantics;
          Alcotest.test_case "zero violations frozen mid-delta" `Quick test_delta_frozen_mid_delta;
          Alcotest.test_case "auto-flush thresholds" `Quick test_delta_auto_flush;
          Alcotest.test_case "detects buffer corruption" `Quick test_delta_detects_corruption;
          Alcotest.test_case "deterministic flush/compact sequence" `Quick
            test_delta_diff_deterministic;
          qt prop_delta_differential;
          qt prop_delta_differential_wide;
          qt prop_delta_buffers;
          Alcotest.test_case "pin with unfiled entries" `Quick test_delta_pin_unfiled;
          Alcotest.test_case "dead entries are dropped" `Quick test_delta_memory_bound;
          Alcotest.test_case "exact buffer accounting" `Quick test_delta_memory_exact;
          Alcotest.test_case "level merges, then migrates past an eighth" `Quick test_delta_level_migration;
          Alcotest.test_case "detects level corruption" `Quick test_delta_detects_level_corruption;
          Alcotest.test_case "exact level accounting" `Quick test_delta_level_memory_exact;
          Alcotest.test_case "level events all happen" `Quick test_delta_level_events;
          qt (prop_delta_level Sorted_ivec.Raw);
          qt (prop_delta_level Sorted_ivec.Packed);
        ] );
      ( "lint",
        [
          Alcotest.test_case "seeded violations" `Quick test_lint_seeded_violations;
          Alcotest.test_case "raw clock" `Quick test_lint_raw_clock;
          Alcotest.test_case "query probe" `Quick test_lint_query_probe;
          Alcotest.test_case "clean sources" `Quick test_lint_clean_sources;
          Alcotest.test_case "missing mli" `Quick test_lint_missing_mli;
          Alcotest.test_case "repo tree clean" `Quick test_lint_repo_tree_is_clean;
        ] );
    ]
