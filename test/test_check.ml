(* Tests for the correctness tooling layer (lib/check): the per-layer
   invariant validators, the differential model-checker against the naive
   reference store, the debug assertion hooks, and the source lint. *)

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
  (* Terminal-list sharing is also asserted directly, by physical
     equality, for every spo pair — not just through the checker. *)
  let shared = ref 0 in
  Index.iter
    (fun s v ->
      Pair_vector.iter
        (fun p ol ->
          (match Index.find_list (Hexastore.pso h) p s with
          | Some ol' -> check_bool "o-list shared spo/pso" true (ol == ol')
          | None -> Alcotest.fail "pso missing twin list");
          (match Hexastore.objects_of_sp h ~s ~p with
          | Some ol' -> check_bool "o-list shared with accessor table" true (ol == ol')
          | None -> Alcotest.fail "accessor table missing list");
          incr shared)
        v)
    (Hexastore.spo h);
  check_bool "visited many shared lists" true (!shared > 100)

let test_detects_total_corruption () =
  let h = small_store () in
  match Index.find_vector (Hexastore.spo h) 0 with
  | None -> Alcotest.fail "header 0 missing"
  | Some v ->
      Pair_vector.bump_total v 2;
      some_violation "bumped total" (C.store h);
      Pair_vector.bump_total v (-2);
      no_violations "restored total" (C.store h)

let test_detects_bogus_header () =
  let h = small_store () in
  ignore (Index.get_or_create_vector (Hexastore.spo h) 999);
  some_violation "empty vector under fresh header" (C.store h);
  ignore (Index.remove_header (Hexastore.spo h) 999);
  no_violations "header removed" (C.store h)

let test_detects_pending_header () =
  let h = small_store () in
  let spo = Hexastore.spo h in
  (* Header -1 sorts below every existing one, so a bulk link defers it. *)
  Index.link_bulk spo ~first:(-1) ~second:0 (Sorted_ivec.singleton 0);
  check_int "deferred" 1 (Index.pending_headers spo);
  some_violation "unsealed bulk header" (C.Invariant.index spo);
  Index.seal spo;
  no_violations "sealed" (C.Invariant.index spo);
  Index.unlink spo ~first:(-1) ~second:0 ~list_empty:true;
  no_violations "bogus entry removed" (C.store h)

let test_detects_unshared_list () =
  let h = small_store () in
  (* Replace pso's reference with a value-equal copy: every count and
     query still answers correctly, but the 5x space bound is silently
     gone.  Only the physical-equality check can see this. *)
  let pso = Hexastore.pso h in
  (match Index.find_vector pso 1 with
  | None -> Alcotest.fail "pso header 1 missing"
  | Some v -> (
      match Pair_vector.find v 0 with
      | None -> Alcotest.fail "pso (1,0) missing"
      | Some l ->
          let copy = Sorted_ivec.copy l in
          ignore (Pair_vector.remove v 0);
          ignore (Pair_vector.get_or_insert v 0 (fun () -> copy))));
  some_violation "copied (unshared) terminal list" (C.store h)

let test_dictionary_bijective () =
  let d = Dict.Dictionary.create () in
  List.iter
    (fun s -> ignore (Dict.Dictionary.encode d s))
    [ "a"; "b"; "c"; "a"; "longer string"; "" ];
  no_violations "string dictionary" (C.Invariant.dictionary d);
  let td = Dict.Term_dict.create () in
  List.iter
    (fun t -> ignore (Dict.Term_dict.encode_term td t))
    [
      Rdf.Term.Iri "http://example.org/x";
      Rdf.Term.string_literal "x";
      Rdf.Term.Blank "x";
      Rdf.Term.Iri "http://example.org/x";
    ];
  check_int "spelling-colliding terms get distinct ids" 3 (Dict.Term_dict.size td);
  no_violations "term dictionary" (C.Invariant.term_dict td)

let test_dataset_coherent () =
  let d = Dataset.create () in
  let g = Rdf.Term.Iri "http://example.org/g" in
  let tr s p o = Rdf.Triple.make (Rdf.Term.Iri s) (Rdf.Term.Iri p) (Rdf.Term.Iri o) in
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
           (Rdf.Triple.make (Rdf.Term.Iri t) (Rdf.Term.Iri "p") (Rdf.Term.string_literal t))))
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

(* ------------------------------------------------------------------ *)
(* Debug assertion hooks                                               *)
(* ------------------------------------------------------------------ *)

let test_debug_off_by_default () =
  check_bool "Check.debug starts false" false !C.debug;
  let before = Debug.validation_count () in
  let h = small_store () in
  ignore (Hexastore.remove_ids h (t3 0 1 2));
  check_int "no validations ran with the guard off" before (Debug.validation_count ())

let test_debug_hooks_fire () =
  let before = Debug.validation_count () in
  C.debug := true;
  Fun.protect
    ~finally:(fun () -> C.debug := false)
    (fun () ->
      let h = Hexastore.create () in
      ignore (Hexastore.add_ids h (t3 1 2 3));
      ignore (Hexastore.add_ids h (t3 1 2 4));
      ignore (Hexastore.remove_ids h (t3 1 2 3));
      (* Failed mutations (duplicate insert, absent delete) skip the hook. *)
      ignore (Hexastore.add_ids h (t3 1 2 4));
      ignore (Hexastore.remove_ids h (t3 9 9 9));
      check_int "one validation per successful mutation" (before + 3)
        (Debug.validation_count ()))

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
          Alcotest.test_case "detects pending header" `Quick test_detects_pending_header;
          Alcotest.test_case "detects unshared list" `Quick test_detects_unshared_list;
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
        ] );
      ( "debug-hooks",
        [
          Alcotest.test_case "off by default" `Quick test_debug_off_by_default;
          Alcotest.test_case "fire when enabled" `Quick test_debug_hooks_fire;
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
