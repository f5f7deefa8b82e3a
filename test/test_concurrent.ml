(* Tests for the PR-8 concurrency layer: the [Query.Par] domain pool,
   range-split sorted scans, parallel ≡ sequential differential
   execution across all store kinds, multi-domain telemetry safety, the
   delta pin/flush protocol, and the writer-vs-readers stress runner. *)

open Rdf
module C = Check
module CC = Check.Concurrent

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixture: a denser random graph than fig1 so parallel range splits
   and multi-way joins have real work.  Nodes serve as both subjects
   and objects, so chained patterns join non-trivially. *)
(* ------------------------------------------------------------------ *)

let num_nodes = 10
let num_preds = 4
let node_term i = Term.iri (Printf.sprintf "http://example.org/n%d" i)
let pred_term i = Term.iri (Printf.sprintf "http://example.org/p%d" i)

let fixture_triples =
  let st = Random.State.make [| 0xbeef |] in
  List.init 60 (fun _ ->
      Triple.make
        (node_term (Random.State.int st num_nodes))
        (pred_term (Random.State.int st num_preds))
        (node_term (Random.State.int st num_nodes)))

let make_hexastore () = Hexa.Hexastore.of_triples fixture_triples

(* A delta whose merged view equals the fixture: two thirds flushed into
   the base, the rest pending in the insert buffer, plus a tombstoned
   decoy — so merged scans, splits and pins all have buffers to merge. *)
let make_delta () =
  let d = Hexa.Delta.create ~insert_threshold:100_000 ~delete_threshold:100_000 () in
  let decoy = Triple.make (node_term 0) (pred_term 0) (Term.iri "http://example.org/decoy") in
  let rec split i = function
    | [] -> ([], [])
    | t :: rest ->
        let base, pending = split (i + 1) rest in
        if i < 40 then (t :: base, pending) else (base, t :: pending)
  in
  let base, pending = split 0 fixture_triples in
  List.iter (fun t -> ignore (Hexa.Delta.add d t)) base;
  ignore (Hexa.Delta.add d decoy);
  Hexa.Delta.flush d;
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
    Hexa.Store_sig.box_hexastore (make_hexastore ());
    covp [ Hexa.Ordering.Pso ] fixture_triples;
    covp [ Hexa.Ordering.Pso; Hexa.Ordering.Pos ] fixture_triples;
    Hexa.Store_sig.box_delta (make_delta ());
  ]

(* ------------------------------------------------------------------ *)
(* Par pool                                                            *)
(* ------------------------------------------------------------------ *)

let test_par_run_order () =
  Query.Par.with_domains 4 (fun () ->
      let r = Query.Par.run (Array.init 32 (fun i () -> i * i)) in
      Alcotest.(check (array int)) "slot order" (Array.init 32 (fun i -> i * i)) r)

let test_par_exception () =
  Query.Par.with_domains 2 (fun () ->
      (match Query.Par.run [| (fun () -> 1); (fun () -> failwith "boom") |] with
      | exception Failure m -> check_string "exception surfaces" "boom" m
      | _ -> Alcotest.fail "expected the thunk's exception to re-raise");
      (* The pool survives a failed batch. *)
      let r = Query.Par.run (Array.init 8 (fun i () -> i + 1)) in
      check_int "pool usable after failure" 36 (Array.fold_left ( + ) 0 r))

let test_par_nested () =
  Query.Par.with_domains 2 (fun () ->
      let inner j = Array.fold_left ( + ) 0 (Query.Par.run (Array.init 5 (fun i () -> (10 * j) + i))) in
      let r = Query.Par.run (Array.init 4 (fun j () -> inner j)) in
      check_int "nested runs complete" (Array.fold_left ( + ) 0 (Array.init 4 inner)) (Array.fold_left ( + ) 0 r))

(* Pool-accounting hammer: four concurrent caller domains each drive 50
   batches of 16 thunks through [Par.run] at width 4, then the stats
   snapshot must balance exactly — every submitted task completed, the
   per-lane tallies sum to the total, and shutdown leaves nothing queued
   or in flight. *)
let test_par_stats_hammer () =
  Query.Par.shutdown ();
  Query.Par.reset_stats ();
  let callers = 4 and batches = 50 and batch = 16 in
  Query.Par.with_domains 4 (fun () ->
      let driver () =
        for _ = 1 to batches do
          let r = Query.Par.run (Array.init batch (fun i () -> i)) in
          assert (Array.length r = batch)
        done
      in
      let ds = List.init (callers - 1) (fun _ -> Domain.spawn driver) in
      driver ();
      List.iter Domain.join ds);
  Query.Par.shutdown ();
  let s = Query.Par.stats () in
  let total = callers * batches * batch in
  check_int "every task submitted" total s.Query.Par.submitted;
  check_int "every task completed" total s.Query.Par.completed;
  check_int "lane tallies sum to the total" total
    (Array.fold_left ( + ) 0 s.Query.Par.lane_tasks);
  check_int "queue drained at shutdown" 0 s.Query.Par.queue_depth;
  check_int "nothing in flight at shutdown" 0 s.Query.Par.in_flight;
  check_bool "spawned workers were joined" true (s.Query.Par.joined >= s.Query.Par.spawned)

(* End-to-end observability of one fanned query: the executor must emit
   a par.fanout event sized by the pool width, record one range span per
   achieved range — every one a child of the query's parallel span — and
   EXPLAIN --analyze must print the achieved fan-out next to the
   planner's par= hint. *)
let test_parallel_query_observability () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let saved_min = !Query.Planner.parallel_min_rows in
  Query.Planner.parallel_min_rows := 0;
  Fun.protect
    ~finally:(fun () ->
      Query.Planner.parallel_min_rows := saved_min;
      Telemetry.Trace.clear ())
    (fun () ->
      Telemetry.with_enabled true (fun () ->
          Telemetry.Trace.clear ();
          Query.Par.with_domains 4 (fun () ->
              let store = Hexa.Store_sig.box_hexastore (make_hexastore ()) in
              let q =
                Query.Algebra.Bgp
                  [
                    Query.Algebra.tp (Query.Algebra.Var "s") (Query.Algebra.Var "p")
                      (Query.Algebra.Var "o");
                  ]
              in
              ignore (Query.Exec.run store q);
              let fanout =
                List.find_map
                  (fun (e : Telemetry.Trace.entry) ->
                    match e.kind with
                    | Telemetry.Trace.Par_fanout { planned; achieved; width; _ } ->
                        Some (planned, achieved, width)
                    | _ -> None)
                  (Telemetry.Trace.events ())
              in
              let achieved =
                match fanout with
                | None -> Alcotest.fail "no par.fanout event emitted"
                | Some (planned, achieved, width) ->
                    check_int "pool width recorded" 4 width;
                    check_bool "achieved within the planned fan-out" true
                      (achieved >= 0 && achieved <= planned);
                    achieved
              in
              let spans = Telemetry.Trace.spans () in
              let par_span =
                List.find (fun s -> Telemetry.Trace.name s = "exec.bgp.parallel") spans
              in
              let ranges =
                List.filter (fun s -> Telemetry.Trace.name s = "exec.bgp.par_range") spans
              in
              check_int "one range span per achieved range" achieved (List.length ranges);
              List.iter
                (fun (r : Telemetry.Trace.entry) ->
                  check_bool "range span parented to the parallel span" true
                    (r.parent = Some par_span.id);
                  check_int "range span one level under its parent" (par_span.depth + 1)
                    r.depth)
                ranges;
              let txt =
                Format.asprintf "%a" Query.Exec.pp_explain
                  (Query.Exec.explain ~analyze:true store q)
              in
              check_bool "EXPLAIN --analyze reports achieved fan-out" true
                (contains txt "achieved="))))

(* A fanned-out scan opens exactly one sorted cursor (one probe of the
   serving ordering) per range it runs: the split itself is carved by
   [scan_bounds], which opens none. *)
let test_split_one_probe_per_range () =
  let opened = Atomic.make 0 in
  let module Counting = struct
    include Hexa.Store_sig.Hexastore_store

    let seek_sorted t pat pos =
      Atomic.incr opened;
      seek_sorted t pat pos
  end in
  let saved_min = !Query.Planner.parallel_min_rows in
  Query.Planner.parallel_min_rows := 0;
  Fun.protect
    ~finally:(fun () ->
      Query.Planner.parallel_min_rows := saved_min;
      Telemetry.Trace.clear ())
    (fun () ->
      Telemetry.with_enabled true (fun () ->
          Telemetry.Trace.clear ();
          Query.Par.with_domains 2 (fun () ->
              let store = Hexa.Store_sig.Boxed ((module Counting), make_hexastore ()) in
              let var v = Query.Algebra.Var v in
              ignore (Query.Exec.run store (Query.Algebra.Bgp [ Query.Algebra.tp (var "s") (var "p") (var "o") ]));
              let achieved =
                List.find_map
                  (fun (e : Telemetry.Trace.entry) ->
                    match e.kind with
                    | Telemetry.Trace.Par_fanout { achieved; _ } -> Some achieved
                    | _ -> None)
                  (Telemetry.Trace.events ())
              in
              match achieved with
              | None -> Alcotest.fail "no par.fanout event emitted"
              | Some achieved ->
                  check_bool "the scan was split" true (achieved > 1);
                  check_int "one cursor per range" achieved (Atomic.get opened))))

let test_with_domains_restores () =
  let before = Query.Par.domains () in
  Query.Par.with_domains 3 (fun () -> check_int "inside" 3 (Query.Par.domains ()));
  check_int "restored" before (Query.Par.domains ());
  (try Query.Par.with_domains 2 (fun () -> failwith "x") with Failure _ -> ());
  check_int "restored on raise" before (Query.Par.domains ())

(* ------------------------------------------------------------------ *)
(* Split-scan ≡ unsplit scan (satellite 3)                             *)
(* ------------------------------------------------------------------ *)

(* Interprets the generated case against one store's read API: encode
   the bound terms through its dictionary, pick a free position, and
   demand that the ranges [scan_bounds] carves, each run on its own
   [seek_sorted] cursor and concatenated, reproduce the whole-scan run
   [run min_int max_int] exactly, and that the whole scan is the
   pattern's matches among all the store's triples ([iter] of the
   wildcard, into [Check.Model]) sorted in the serving ordering. *)
let split_matches ~dict ~seek_sorted ~scan_bounds ~iter (mask, (si, pi, oi), posidx, parts) =
  let bound bit term = if mask land bit = bit then Some term else None in
  let enc = function
    | None -> None
    | Some t -> (
        match Dict.Term_dict.find_term dict t with
        | Some i -> Some i
        | None -> Some (-1) (* unknown constant: matches nothing *))
  in
  let pat =
    Hexa.Pattern.make
      ?s:(enc (bound 1 (node_term si)))
      ?p:(enc (bound 2 (pred_term pi)))
      ?o:(enc (bound 4 (node_term oi)))
      ()
  in
  let free =
    List.filter_map
      (fun (pos, bit) -> if mask land bit = 0 then Some pos else None)
      [ (Hexa.Pattern.Subj, 1); (Hexa.Pattern.Pred, 2); (Hexa.Pattern.Obj, 4) ]
  in
  let pos = List.nth free (posidx mod List.length free) in
  let run lo hi =
    match seek_sorted pat pos with
    | None -> []
    | Some (_, run) -> Check.Model.pushed (run lo hi)
  in
  match seek_sorted pat pos with
  | None -> false
  | Some (ord, _) ->
      let bounds = scan_bounds pat pos ~parts in
      let n = Array.length bounds in
      let ranges =
        List.init (n + 1) (fun i ->
            run (if i = 0 then min_int else bounds.(i - 1)) (if i = n then max_int else bounds.(i)))
      in
      let whole = run min_int max_int in
      let model =
        let m = Check.Model.create () in
        iter Hexa.Pattern.wildcard (fun s p o -> ignore (Check.Model.add m { Dict.Term_dict.s; p; o }));
        List.sort (Hexa.Ordering.compare_triples ord) (Check.Model.lookup m pat)
      in
      n < parts && List.concat ranges = whole && whole = model

let split_store = lazy (make_hexastore ())
let split_delta = lazy (make_delta ())

let gen_split_case =
  QCheck.Gen.(
    map
      (fun (mask, ids, posidx, parts) -> (mask, ids, posidx, parts))
      (quad (int_bound 6) (* all shapes except fully bound *)
         (triple (int_bound (num_nodes - 1)) (int_bound (num_preds - 1)) (int_bound (num_nodes - 1)))
         (int_bound 2) (int_range 1 4)))

let prop_split_concat =
  QCheck.Test.make
    ~name:"k-way split scan = unsplit scan (hexastore + delta, all 0/1/2-bound shapes)"
    ~count:300
    (QCheck.make gen_split_case
       ~print:(fun (mask, (si, pi, oi), posidx, parts) ->
         Printf.sprintf "mask=%d s=n%d p=p%d o=n%d posidx=%d parts=%d" mask si pi oi posidx
           parts))
    (fun case ->
      let h = Lazy.force split_store in
      let d = Lazy.force split_delta in
      split_matches ~dict:(Hexa.Hexastore.dict h) ~seek_sorted:(Hexa.Hexastore.seek_sorted h)
        ~scan_bounds:(Hexa.Hexastore.scan_bounds h) ~iter:(Hexa.Hexastore.iter h) case
      && split_matches ~dict:(Hexa.Delta.dict d) ~seek_sorted:(Hexa.Delta.seek_sorted d)
           ~scan_bounds:(Hexa.Delta.scan_bounds d) ~iter:(Hexa.Delta.iter d) case)

(* ------------------------------------------------------------------ *)
(* Parallel ≡ sequential differential (tentpole)                       *)
(* ------------------------------------------------------------------ *)

let gen_atom =
  QCheck.Gen.(
    frequency
      [
        (2, return (Query.Algebra.Var "x"));
        (2, return (Query.Algebra.Var "y"));
        (1, return (Query.Algebra.Var "z"));
        (2, map (fun i -> Query.Algebra.Term (node_term i)) (int_bound (num_nodes - 1)));
        (1, map (fun i -> Query.Algebra.Term (pred_term i)) (int_bound (num_preds - 1)));
      ])

let gen_tp = QCheck.Gen.(map3 Query.Algebra.tp gen_atom gen_atom gen_atom)

(* 100 cases × 4 store kinds × widths {1, 2, 4} ≈ 1,200 parallel-vs-
   sequential runs, each also cross-checked against brute force. *)
let prop_parallel_equals_sequential =
  QCheck.Test.make
    ~name:"parallel = sequential on random BGPs (4 stores x widths 1/2/4)" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 3) gen_tp))
    (fun tps ->
      List.for_all
        (fun store ->
          List.for_all
            (fun d ->
              match CC.differential store tps ~domains:d with
              | [] -> true
              | vs ->
                  QCheck.Test.fail_reportf "%a" C.Violation.pp_report vs)
            [ 1; 2; 4 ])
        (all_boxed ()))

(* ------------------------------------------------------------------ *)
(* Multi-domain telemetry (satellite 1)                                *)
(* ------------------------------------------------------------------ *)

let test_multi_domain_telemetry () =
  let saved_capacity = Telemetry.Trace.capacity () in
  let capacity = 256 (* force overwrites *) in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Trace.set_capacity saved_capacity;
      Telemetry.Trace.clear ())
    (fun () ->
      Telemetry.with_enabled true (fun () ->
          Telemetry.Trace.set_capacity capacity;
          Telemetry.Trace.clear ();
          let c = Telemetry.Metrics.counter "test.concurrent.emitters" in
          let h = Telemetry.Metrics.histogram "test.concurrent.latency" in
          let base_count = Telemetry.Histogram.count h in
          let domains = 4 and per_domain = 500 in
          let emitter i () =
            for j = 1 to per_domain do
              Telemetry.Metrics.incr c;
              Telemetry.Metrics.observe h j;
              Telemetry.Trace.emit
                (Telemetry.Trace.Query_start { op = Printf.sprintf "d%d" i; patterns = j });
              Telemetry.Trace.with_span "test.concurrent.span" (fun () -> ())
            done
          in
          let ds = List.init domains (fun i -> Domain.spawn (emitter i)) in
          List.iter Domain.join ds;
          let total = domains * per_domain in
          check_int "counter counts every increment" total (Telemetry.Metrics.value c);
          check_int "histogram counts every observation" total
            (Telemetry.Histogram.count h - base_count);
          check_int "histogram sum is exact"
            (domains * (per_domain * (per_domain + 1) / 2))
            (Telemetry.Histogram.sum h);
          (* Ring accounting: every event and span is recorded, and each
             one is either resident in the dump or counted as dropped —
             nothing is silently lost. *)
          check_int "every event and span recorded" (2 * total) (Telemetry.Trace.recorded ());
          let dump = Telemetry.Trace.dump () in
          check_int "resident + dropped = recorded" (2 * total)
            (List.length dump + Telemetry.Trace.dropped ());
          check_bool "each shard keeps at most its capacity" true
            (List.length dump <= domains * capacity);
          let seqs = List.map (fun (e : Telemetry.Trace.entry) -> e.seq) dump in
          check_bool "dump seqs strictly increasing" true
            (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
          (* No torn entries: every resident payload is well-formed. *)
          List.iter
            (fun (e : Telemetry.Trace.entry) ->
              match e.kind with
              | Telemetry.Trace.Query_start { op; patterns } ->
                  check_bool ("intact label " ^ op) true
                    (Scanf.sscanf_opt op "d%d" (fun d -> d >= 0 && d < domains) = Some true
                    && patterns >= 1 && patterns <= per_domain)
              | Telemetry.Trace.Span name ->
                  check_string "span name intact" "test.concurrent.span" name;
                  check_bool "span depth sane" true (e.depth >= 0 && e.duration >= 0.)
              | _ -> Alcotest.fail "unexpected entry kind in ring")
            dump))

(* ------------------------------------------------------------------ *)
(* Delta pin / flush protocol                                          *)
(* ------------------------------------------------------------------ *)

let test_pin_isolates_snapshot () =
  let d = Hexa.Delta.create ~insert_threshold:1000 ~delete_threshold:1000 () in
  let t i = Triple.make (node_term i) (pred_term 0) (node_term (i + 1)) in
  ignore (Hexa.Delta.add d (t 0));
  ignore (Hexa.Delta.add d (t 1));
  Hexa.Delta.flush d;
  let view, unpin = Hexa.Delta.pin d in
  check_int "one pin held" 1 (Hexa.Delta.pins d);
  (* Staging is allowed under a pin; only base mutation must wait. *)
  ignore (Hexa.Delta.add d (t 2));
  ignore (Hexa.Delta.remove d (t 0));
  check_int "writer sees staged state" 2 (Hexa.Delta.size d);
  check_int "pinned view is isolated" 2 (Hexa.Delta.size view);
  check_bool "view still has the removed triple" true (Hexa.Delta.mem view (t 0));
  check_bool "view lacks the staged insert" false (Hexa.Delta.mem view (t 2));
  unpin ();
  unpin () (* idempotent *);
  check_int "pin released" 0 (Hexa.Delta.pins d);
  Hexa.Delta.flush d;
  check_int "flush drains after release" 0 (Hexa.Delta.pending_inserts d)

let test_pin_blocks_flush () =
  let d = Hexa.Delta.create ~insert_threshold:1000 ~delete_threshold:1000 () in
  let t i = Triple.make (node_term i) (pred_term 1) (node_term i) in
  ignore (Hexa.Delta.add d (t 0));
  Hexa.Delta.flush d;
  let _view, unpin = Hexa.Delta.pin d in
  ignore (Hexa.Delta.add d (t 1));
  let flushed = Atomic.make false in
  let flusher =
    Domain.spawn (fun () ->
        Hexa.Delta.flush d;
        Atomic.set flushed true)
  in
  Unix.sleepf 0.05;
  check_bool "flush waits while a pin is held" false (Atomic.get flushed);
  check_int "nothing drained yet" 1 (Hexa.Delta.pending_inserts d);
  unpin ();
  Domain.join flusher;
  check_bool "flush completes after release" true (Atomic.get flushed);
  check_int "drained" 0 (Hexa.Delta.pending_inserts d);
  check_int "base caught up" 2 (Hexa.Delta.size d)

(* An auto-flush that merges into the level builds a new level and
   leaves the base alone, so it goes ahead while a pin is held — on the
   pinning domain itself — and the view keeps the level it was made
   with.  One that migrates still waits for the release. *)
let test_pin_spares_level_merge () =
  let d = Hexa.Delta.create ~insert_threshold:4 ~delete_threshold:4 () in
  let t i = Triple.make (node_term i) (pred_term 2) (node_term (i + 1)) in
  ignore (Hexa.Delta.add_bulk_ids d (Array.init 200 (fun i ->
      Dict.Term_dict.encode_triple (Hexa.Delta.dict d) (t i))));
  let view, unpin = Hexa.Delta.pin d in
  let before = Check.Model.pushed (Hexa.Delta.iter view Hexa.Pattern.wildcard) in
  for i = 1000 to 1003 do
    ignore (Hexa.Delta.add d (t i))
  done;
  check_int "merged into the level under the pin" 4 (Hexa.Delta.level_size d);
  check_int "buffers drained" 0 (Hexa.Delta.pending_inserts d);
  check_bool "the view is unchanged" true
    (Check.Model.pushed (Hexa.Delta.iter view Hexa.Pattern.wildcard) = before);
  let flushed = Atomic.make false in
  let flusher =
    Domain.spawn (fun () ->
        Hexa.Delta.flush d;
        Atomic.set flushed true)
  in
  Unix.sleepf 0.05;
  check_bool "a migration waits for the pin" false (Atomic.get flushed);
  unpin ();
  Domain.join flusher;
  check_int "migrated after release" 0 (Hexa.Delta.level_size d);
  check_int "base caught up" 204 (Hexa.Hexastore.size (Hexa.Delta.base d));
  check_int "pins balanced" 0 (Hexa.Delta.pins d)

(* ------------------------------------------------------------------ *)
(* Stress smoke (the @stress alias runs the CLI at 1/2/4 domains)      *)
(* ------------------------------------------------------------------ *)

let test_stress_smoke () =
  let r =
    CC.stress { CC.readers = 2; rounds = 3; ops_per_round = 40; domains = 2; seed = 7 }
  in
  (match r.CC.violations with
  | [] -> ()
  | vs -> Alcotest.failf "stress violations:@.%a" C.Violation.pp_report vs);
  check_int "ops applied" 120 r.CC.ops;
  check_int "one compaction (round 3)" 1 r.CC.compactions;
  check_bool "explicit flushes ran" true (r.CC.flushes >= 3);
  check_bool "auto-flushes merged into the level under pins" true (r.CC.level_merges > 0);
  check_bool "the level migrated" true (r.CC.migrations + r.CC.flushes + r.CC.compactions > 0);
  check_bool "readers actually queried" true (r.CC.queries > 0)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "concurrent"
    [
      ( "par",
        [
          Alcotest.test_case "run preserves slot order" `Quick test_par_run_order;
          Alcotest.test_case "exceptions re-raise, pool survives" `Quick test_par_exception;
          Alcotest.test_case "nested runs don't deadlock" `Quick test_par_nested;
          Alcotest.test_case "stats hammer balances exactly" `Quick test_par_stats_hammer;
          Alcotest.test_case "fanned query is fully observable" `Quick
            test_parallel_query_observability;
          Alcotest.test_case "split scan: one probe per range" `Quick test_split_one_probe_per_range;
          Alcotest.test_case "with_domains restores" `Quick test_with_domains_restores;
        ] );
      ("split", [ qt prop_split_concat ]);
      ("differential", [ qt prop_parallel_equals_sequential ]);
      ( "telemetry",
        [ Alcotest.test_case "4-domain emitters, exact accounting" `Quick test_multi_domain_telemetry ] );
      ( "delta-pin",
        [
          Alcotest.test_case "pin isolates a snapshot" `Quick test_pin_isolates_snapshot;
          Alcotest.test_case "pin blocks flush until release" `Quick test_pin_blocks_flush;
          Alcotest.test_case "pin spares a level merge" `Quick test_pin_spares_level_merge;
        ] );
      ("stress", [ Alcotest.test_case "writer vs readers smoke" `Quick test_stress_smoke ]);
    ]
