(* End-to-end benchmark: N-Triples text -> dictionary -> bulk load ->
   snapshot save/load -> SPARQL text -> parse -> plan -> execute ->
   decoded rows, one client, closed loop.  See NOTES.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest

   The last line of standard output is the result object.  With
   [--trace 0] it carries the end-to-end metrics; with [--trace 1] the
   same run continues with a traced loop and carries the per-layer
   metrics instead. *)

open Hexa
module Par = Query.Par

let setup_reps = 3

(* Loop time spent before measuring, so lazy set-up and caches settle. *)
let warmup_s = 2.0

(* Timed loops report the median over this many equal-time segments, so
   a disturbance of the machine that lasts less than half a run does not
   move the result. *)
let segments = 5

(* Write latency on the read-only workloads: transactions on a delta
   over the same store, for [probe_s] seconds (no longer than the
   measured loop), in rounds of
   [probe_round] on a fresh delta.  A window of [probe_window] live
   inserts keeps every round below the delta's flush thresholds. *)
let probe_s = 3.0

let probe_round = 1000

let probe_window = 256

let out_dir = ".perfbench-out"

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* Collections between stages, so one stage's garbage is not collected
   on the next one's clock. *)
let settle () = Gc.compact ()

(* --- set-up stages ------------------------------------------------------ *)

type stage = { wall : float; cpu : float; minor : int; major : int }

let stage f =
  let g0 = Gc.quick_stat () in
  let c0 = Meter.cpu_s () and t0 = Meter.now_ns () in
  let r = f () in
  let wall = Meter.seconds_since t0 and cpu = Meter.cpu_s () -. c0 in
  let g1 = Gc.quick_stat () in
  ( r,
    { wall; cpu; minor = g1.minor_collections - g0.minor_collections;
      major = g1.major_collections - g0.major_collections } )

type store = Plain of Hexastore.t | Fronted of Delta.t

let front kind h = if Scenario.uses_delta kind then Fronted (Delta.of_base h) else Plain h

let base = function Plain h -> h | Fronted d -> Delta.base d

let boxed = function Plain h -> Store_sig.box_hexastore h | Fronted d -> Store_sig.box_delta d

type rep = {
  parse : stage;
  encode : stage;
  load : stage;  (** create + bulk load (+ compress) + delta front *)
  save : stage;
  reload : stage;  (** snapshot load + delta front *)
}

let setup_s r = r.parse.wall +. r.encode.wall +. r.load.wall
let reopen_s r = r.save.wall +. r.reload.wall

let encode dict triples =
  let a = Array.make (List.length triples) { Dict.Term_dict.s = 0; p = 0; o = 0 } in
  List.iteri (fun i t -> a.(i) <- Dict.Term_dict.encode_triple dict t) triples;
  a

(* Text -> query-ready store, then saved.  The store is dropped on
   return, so the reload that follows does not run next to it. *)
let build_and_save kind text ~last path =
  let parsed = ref [] in
  let (), parse = stage (fun () -> parsed := Rdf.Ntriples.parse_string !text) in
  if last then text := "";
  settle ();
  let dict = Dict.Term_dict.create () in
  let ids, encode = stage (fun () -> encode dict !parsed) in
  parsed := [];
  settle ();
  let store, load =
    stage (fun () ->
        let h = Hexastore.create ~dict ~repr:(Scenario.repr kind) () in
        ignore (Hexastore.add_bulk_ids h ids);
        front kind h)
  in
  settle ();
  let (), save = stage (fun () -> Snapshot.save (base store) path) in
  (ids, parse, encode, load, save)

let setup kind text =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "store-%d.snap" (Unix.getpid ())) in
  let rec go i acc =
    let ids, parse, encode, load, save = build_and_save kind text ~last:(i = setup_reps) path in
    settle ();
    let store, reload = stage (fun () -> front kind (Snapshot.load path)) in
    Sys.remove path;
    let acc = { parse; encode; load; save; reload } :: acc in
    if i = setup_reps then (store, ids, List.rev acc)
    else begin
      settle ();
      go (i + 1) acc
    end
  in
  go 1 []

(* --- the operation loop -------------------------------------------------- *)

type tally = {
  read_lat : Meter.samples;  (** seconds per read *)
  write_lat : Meter.samples;  (** seconds per write transaction *)
  mutable busy_ns : int;  (** time inside operations *)
  mutable attempted : int;
  mutable failed : int;
  mutable repeats : int;  (** reads whose text was seen before *)
  mutable fanned : int;  (** reads that handed tasks to the pool *)
  mutable flushes : int;  (** writes that drained the delta buffers *)
  mutable rows : int;  (** result rows returned *)
  mutable minor_words : float;
  mutable marks : (int * int * int) list;
      (** (reads, writes, busy_ns) at each segment boundary, latest first *)
}

let tally () =
  { read_lat = Meter.samples (); write_lat = Meter.samples (); busy_ns = 0; attempted = 0;
    failed = 0; repeats = 0; fanned = 0; flushes = 0; rows = 0; minor_words = 0.;
    marks = [ (0, 0, 0) ] }

let reads t = Meter.count t.read_lat

(* Runs [f] until [seconds] have passed, marking segment boundaries. *)
let timed tl seconds f =
  let t0 = Meter.now_ns () in
  let mark () = tl.marks <- (reads tl, Meter.count tl.write_lat, tl.busy_ns) :: tl.marks in
  while Meter.seconds_since t0 < seconds do
    f ();
    let due = float_of_int (List.length tl.marks) *. seconds /. float_of_int segments in
    if Meter.seconds_since t0 >= due && List.length tl.marks <= segments then mark ()
  done;
  while List.length tl.marks <= segments do
    mark ()
  done

(* The median over segments of [f] applied to each segment's bounds. *)
let segment_median tl f =
  let marks = Array.of_list (List.rev tl.marks) in
  List.init (Array.length marks - 1) (fun i -> f marks.(i) marks.(i + 1))
  |> List.filter Float.is_finite |> Meter.median_of

let seg_qps tl = segment_median tl (fun (r0, _, b0) (r1, _, b1) -> float_of_int (r1 - r0) /. (float_of_int (b1 - b0) *. 1e-9))

let seg_read_ms tl q = segment_median tl (fun (lo, _, _) (hi, _, _) -> Meter.quantile_range tl.read_lat ~lo ~hi q *. 1e3)

let seg_write_ms tl q = segment_median tl (fun (_, lo, _) (_, hi, _) -> Meter.quantile_range tl.write_lat ~lo ~hi q *. 1e3)

(* What a loop shares across its operations.  [seen] maps each read
   text seen so far to a digest of its last expected rows: a run sees
   tens of thousands of distinct texts, and keeping their rows would
   weigh on the heap the run measures. *)
type ctx = {
  kind : Scenario.kind;
  store : store;
  oracle : Oracle.t;
  seen : (string, Digest.t) Hashtbl.t;
  corrupt : string list list -> string list list;
      (** identity, except in the self-test's check that a wrong answer
          is caught *)
}

type tracer = { spans : Meter.spans; mutable op_id : int }

let rec bgps = function
  | Query.Algebra.Bgp tps -> [ tps ]
  | Join (a, b) | Left_join (a, b) | Union (a, b) -> bgps a @ bgps b
  | Filter (_, q) | Distinct q | Project (_, q) | Extend_group (_, _, q) | Order_by (_, q)
  | Slice (_, _, q) ->
      bgps q
  | Values _ -> []

(* SPARQL text -> decoded rows: the read path a user takes. *)
let run_read ?trace store text =
  let box = boxed store and dict = Hexastore.dict (base store) in
  match trace with
  | None ->
      let q = Query.Sparql.parse text in
      Query.Results.to_table dict ~columns:q.projection (Query.Exec.run box q.algebra)
  | Some (tr, op, root) ->
      let span name f = Meter.child tr.spans ~op ~parent:root name f in
      let q = span "query.parse" (fun () -> Query.Sparql.parse text) in
      span "query.plan" (fun () -> List.iter (fun tps -> ignore (Query.Planner.plan box tps)) (bgps q.algebra));
      let sols = span "query.exec" (fun () -> Query.Exec.run box q.algebra) in
      span "dict.decode" (fun () -> Query.Results.to_table dict ~columns:q.projection sols)

let run_write ?trace d (txn : Scenario.txn) =
  let call name f x =
    match trace with
    | None -> f d x
    | Some (tr, op, root) -> Meter.child tr.spans ~op ~parent:root name (fun () -> f d x)
  in
  let added = List.map (call "hexa.delta.add" Delta.add) txn.adds in
  let removed = List.map (call "hexa.delta.remove" Delta.remove) txn.removes in
  added @ removed

let pending d = Delta.pending_inserts d + Delta.pending_deletes d

let digest sorted_rows = Digest.string (Marshal.to_string sorted_rows [])

(* One operation: timed from its text to its decoded rows or applied
   writes, then checked against the oracle outside the timed span. *)
let step ctx tl ?tracer op =
  tl.attempted <- tl.attempted + 1;
  let trace root_name =
    Option.map
      (fun tr ->
        tr.op_id <- tr.op_id + 1;
        (tr, tr.op_id, Meter.open_span tr.spans ~op:tr.op_id ~parent:(-1) root_name))
      tracer
  in
  let close = Option.iter (fun (tr, _, root) -> Meter.close_span tr.spans root) in
  match op with
  | Scenario.Read (text, query) ->
      let seen = Hashtbl.find_opt ctx.seen text in
      if seen <> None then tl.repeats <- tl.repeats + 1;
      let submitted0 = if tracer = None then 0 else (Par.stats ()).submitted in
      let words0 = Gc.minor_words () in
      let tr = trace "op.read" in
      let t0 = Meter.now_ns () in
      let rows = try Ok (run_read ?trace:tr ctx.store text) with e -> Error e in
      let dt = Meter.now_ns () - t0 in
      close tr;
      tl.minor_words <- tl.minor_words +. (Gc.minor_words () -. words0);
      tl.busy_ns <- tl.busy_ns + dt;
      Meter.push tl.read_lat (float_of_int dt *. 1e-9);
      if tracer <> None && (Par.stats ()).submitted > submitted0 then tl.fanned <- tl.fanned + 1;
      let expected =
        match seen with
        | Some d when not (Scenario.uses_delta ctx.kind) -> d
        | _ ->
            let d = digest (Oracle.eval ctx.oracle (Hexastore.dict (base ctx.store)) query) in
            Hashtbl.replace ctx.seen text d;
            d
      in
      let ok =
        match rows with
        | Ok rows ->
            let rows = ctx.corrupt rows in
            tl.rows <- tl.rows + List.length rows;
            digest (List.sort compare rows) = expected
        | Error e ->
            prerr_endline ("read failed: " ^ Printexc.to_string e ^ "\n  " ^ text);
            false
      in
      if not ok then tl.failed <- tl.failed + 1
  | Write txn -> (
      match ctx.store with
      | Plain _ -> invalid_arg "write on a store without a delta"
      | Fronted d ->
          let before = pending d in
          let tr = trace "op.write" in
          let t0 = Meter.now_ns () in
          let applied = try Ok (run_write ?trace:tr d txn) with e -> Error e in
          let dt = Meter.now_ns () - t0 in
          close tr;
          tl.busy_ns <- tl.busy_ns + dt;
          Meter.push tl.write_lat (float_of_int dt *. 1e-9);
          (* A flush drains both buffers; one transaction alone moves
             them by at most four entries. *)
          if pending d < before - 4 then tl.flushes <- tl.flushes + 1;
          let dict = Delta.dict d in
          let ids tr = Dict.Term_dict.find_triple dict tr in
          List.iter (fun tr -> Option.iter (Oracle.add ctx.oracle) (ids tr)) txn.adds;
          List.iter (fun tr -> Option.iter (Oracle.remove ctx.oracle) (ids tr)) txn.removes;
          let ok =
            match applied with
            | Ok flags ->
                List.for_all Fun.id flags
                && List.for_all (Delta.mem d) txn.adds
                && not (List.exists (Delta.mem d) txn.removes)
            | Error e ->
                prerr_endline ("write failed: " ^ Printexc.to_string e);
                false
          in
          if not ok then tl.failed <- tl.failed + 1)

let loop ctx next_op ?tracer seconds =
  let tl = tally () in
  timed tl seconds (fun () -> step ctx tl ?tracer (next_op ()));
  tl

(* --- one run ------------------------------------------------------------ *)

module J = Telemetry.Json

let input kind scale ~seed =
  let triples = Scenario.generate kind scale ~seed in
  (List.length triples, Rdf.Ntriples.print_string triples)

let per n x = if n = 0 then 0. else x /. float_of_int n

let qps tl = per tl.busy_ns (float_of_int (reads tl)) *. 1e9

let store_words = function Plain h -> Hexastore.memory_words h | Fronted d -> Delta.memory_words d

let median f reps = Meter.median_of (List.map f reps)

let counter name = float_of_int (Telemetry.Metrics.value (Telemetry.Metrics.counter name))

let histogram name = Telemetry.Metrics.histogram name

(* Summed self time of the named spans, in microseconds. *)
let self_us tr =
  let times = Meter.self_times tr.spans in
  fun names ->
    List.fold_left (fun acc (s, ns) -> if List.mem s names then acc +. (float_of_int ns /. 1e3) else acc) 0. times

let totals runs =
  List.fold_left (fun (a, f) (t : tally) -> (a + t.attempted, f + t.failed)) (0, 0) runs

(* Per-layer metrics of the traced loop [tl], which followed the
   untraced loop [plain] on the same store; read before anything else
   touches the registry.  The pool and codec metrics are reported on
   barton-scan only: the LUBM workloads never reach those layers, so
   there they would read 0 whatever the code does. *)
let layer_metrics kind store reps ~plain ~(tl : tally) (tr : tracer) ~par0 ~gc0 ~gc1 =
  let par1 = Par.stats () in
  let n = reads tl in
  let probes =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (Telemetry.Metrics.snapshot_counters ~prefix:"hexastore.probe." ())
  in
  let submitted = par1.submitted - par0.Par.submitted in
  let base_words = Hexastore.memory_words (base store) in
  let stage name f =
    [ (name ^ "_s", median (fun r -> (f r).wall) reps, "s");
      (name ^ "_cpu_s", median (fun r -> (f r).cpu) reps, "s") ]
  in
  let setup_gc f = median (fun r -> float_of_int (f r.parse + f r.encode + f r.load)) reps in
  let loop_gc f = per tl.attempted (float_of_int (f gc1 - f gc0)) *. 1e3 in
  let hist_sum name = float_of_int (Telemetry.Histogram.sum (histogram name)) in
  let self = self_us tr in
  List.concat
    [ stage "rdf.parse" (fun r -> r.parse);
      stage "dict.encode" (fun r -> r.encode);
      stage "hexa.bulk_load" (fun r -> r.load);
      stage "hexa.snapshot_save" (fun r -> r.save);
      stage "hexa.snapshot_load" (fun r -> r.reload);
      [ ("gc.minor_collections.setup", setup_gc (fun s -> s.minor), "count");
        ("gc.major_collections.setup", setup_gc (fun s -> s.major), "count");
        ("gc.minor_collections.loop", loop_gc (fun g -> g.Gc.minor_collections), "1/kop");
        ("gc.major_collections.loop", loop_gc (fun g -> g.Gc.major_collections), "1/kop");
        ("dict.mb", mb (Dict.Term_dict.memory_words (Hexastore.dict (base store))), "MB");
        ("hexa.index_mb", mb base_words, "MB");
        ("hexa.delta.mb", mb (store_words store - base_words), "MB");
        ("query.parse_us", per n (self [ "query.parse" ]), "us");
        ("query.plan_us", per n (self [ "query.plan" ]), "us");
        ("query.exec_us", per n (self [ "query.exec" ]), "us");
        ("dict.decode_us", per n (self [ "dict.decode" ]), "us");
        ("trace.read_self_us", per n (self [ "op.read" ]), "us");
        ("hexa.probes_per_query", per n (float_of_int probes), "count");
        ("hexa.delta.flushes", counter "hexastore.delta.flush.calls", "count");
        ("hexa.delta.flush_frac", per tl.busy_ns (hist_sum "hexastore.delta.flush_duration_us" *. 1e3), "ratio");
        ("hexa.delta.merged_lookups_per_query", per n (counter "hexastore.delta.lookup.merged"), "count");
        ("vectors.gallop_skips_per_query",
          per n (float_of_int (Telemetry.Histogram.count (histogram "vectors.gallop.skip"))), "count");
        ("vectors.bsearch_steps_per_query", per n (counter "vectors.bsearch.steps"), "count");
        ("query.alloc_words_per_query", per n tl.minor_words, "words");
        ("query.rows_scanned_per_row", per tl.rows (counter "query.rows.scan"), "ratio");
        ("query.merge_joins_per_query", per n (counter "query.join.merge"), "count");
        ("query.hash_joins_per_query", per n (counter "query.join.hash"), "count");
        ("query.nested_joins_per_query", per n (counter "query.join.nested"), "count");
        ("query.repeat_frac", per n (float_of_int tl.repeats), "ratio");
        ("trace_overhead", qps tl /. qps plain, "ratio") ];
      (match (kind : Scenario.kind) with
      | Barton_scan ->
          [ ("vectors.blocks_decoded_per_query", per n (counter "vectors.repr.blocks_decoded"), "count");
            ("vectors.merge_input_keys_per_query", per n (hist_sum "vectors.merge.input_keys"), "count");
            ("query.par.tasks_per_query", per n (float_of_int submitted), "count");
            ( "query.par.caller_helped_frac",
              per submitted (float_of_int (par1.caller_helped - par0.caller_helped)), "ratio" );
            ( "query.par.task_wait_frac",
              (let wait = hist_sum "par.task.wait_us" in
               if wait = 0. then 0. else wait /. (wait +. hist_sum "par.task.run_us")),
              "ratio" );
            ("query.par.fanout_frac", per n (float_of_int tl.fanned), "ratio");
            ("query.par.spawned", float_of_int par1.spawned, "count") ]
      | Lubm_point | Lubm_update -> []) ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  info : (string * J.t) list;
}

(* The workload-path properties later claims may rest on; a run that
   breaks one is reported as incorrect. *)
let path_errors kind ~(main : tally) ~par0 ~par1 =
  let open Par in
  match (kind : Scenario.kind) with
  | Lubm_point when par1.spawned > 0 -> [ "lubm-point spawned pool domains" ]
  | Barton_scan when domains () > 1 && par1.submitted = par0.submitted -> [ "barton-scan never fanned out" ]
  | Lubm_update when main.flushes < 3 ->
      [ Printf.sprintf "lubm-update completed %d auto-flushes, expected at least 3" main.flushes ]
  | _ -> []

(* Write transactions on the read-only workloads' store, for [probe_s]
   seconds (see [probe_round]). *)
let write_probe ?tracer ctx h ~seed ~seconds =
  let dict = Hexastore.dict h in
  let writer = Scenario.writers ctx.kind ~seed ~window:probe_window dict ctx.oracle in
  let tl = tally () in
  let round = ref 0 and probe = ref ctx and w = ref (writer 0) in
  timed tl (Float.min probe_s seconds) (fun () ->
      if Meter.count tl.write_lat mod probe_round = 0 then begin
        incr round;
        probe := { ctx with store = Fronted (Delta.of_base h) };
        w := writer !round
      end;
      step !probe tl ?tracer (Write (fst (Scenario.next_write !w))));
  tl

let execute ?(scale = Scenario.Full) ?(check_paths = true) ?(corrupt = Fun.id) kind ~seed
    ~seconds ~trace =
  Telemetry.enabled := false;
  let n_input, text = input kind scale ~seed in
  let store, ids, reps = setup kind (ref text) in
  let oracle = Oracle.create ids in
  settle ();
  let dict = Hexastore.dict (base store) in
  let ctx = { kind; store; oracle; seen = Hashtbl.create 4096; corrupt } in
  let next = Scenario.ops kind ~seed dict oracle in
  let warm = loop ctx next (Float.min warmup_s (seconds /. 5.)) in
  let par0 = Par.stats () in
  let main = loop ctx next seconds in
  let par1 = Par.stats () in
  let store_mb = mb (store_words store + Dict.Term_dict.memory_words dict) in
  let errors = if check_paths then path_errors kind ~main ~par0 ~par1 else [] in
  List.iter (fun e -> prerr_endline ("path check failed: " ^ e)) errors;
  let probe ?tracer () =
    match store with Plain h -> [ write_probe ?tracer ctx h ~seed ~seconds ] | Fronted _ -> []
  in
  let runs, metrics =
    if trace then begin
      Telemetry.Metrics.reset_all ();
      Telemetry.enabled := true;
      let tracer = { spans = Meter.spans (); op_id = 0 } in
      let par0 = Par.stats () and gc0 = Gc.quick_stat () in
      let tl = loop ctx next ~tracer seconds in
      let gc1 = Gc.quick_stat () in
      let layers = layer_metrics kind store reps ~plain:main ~tl tracer ~par0 ~gc0 ~gc1 in
      let probes = probe ~tracer () in
      Telemetry.enabled := false;
      Meter.write tracer.spans
        (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" (Scenario.name kind) seed));
      let runs = (warm :: main :: tl :: probes) in
      let writes = List.fold_left (fun n t -> n + Meter.count t.write_lat) 0 (tl :: probes) in
      let attempted, failed = totals runs in
      ( runs,
        layers
        @ [ ("hexa.delta.write_us", per writes (self_us tracer [ "hexa.delta.add"; "hexa.delta.remove" ]), "us");
            ("verify.failed_frac", per attempted (float_of_int failed), "ratio") ] )
    end
    else begin
      let probes = probe () in
      let writes = match probes with [ p ] -> p | _ -> main in
      ( warm :: main :: probes,
        [ ("setup_s", median setup_s reps, "s");
          ("reopen_s", median reopen_s reps, "s");
          ("query_qps", seg_qps main, "1/s");
          ("query_p50_ms", seg_read_ms main 0.5, "ms");
          ("query_p90_ms", seg_read_ms main 0.9, "ms");
          ("update_p50_ms", seg_write_ms writes 0.5, "ms");
          ("update_p90_ms", seg_write_ms writes 0.9, "ms");
          ("store_mb", store_mb, "MB");
          ("peak_heap_mb", mb (Gc.quick_stat ()).top_heap_words, "MB") ] )
    end
  in
  let attempted, failed = totals runs in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "a metric is not a finite number";
  let info =
    [ ("workload", J.String (Scenario.name kind)); ("seed", J.Int seed);
      ("repr", J.String (Vectors.Sorted_ivec.kind_name (Scenario.repr kind)));
      ("delta", J.Bool (Scenario.uses_delta kind));
      ("cores", J.Int (Domain.recommended_domain_count ())); ("par_domains", J.Int (Par.domains ()));
      ("triples_input", J.Int n_input); ("triples_stored", J.Int (Hexastore.size (base store)));
      ("setup_s_reps", J.List (List.map (fun r -> J.Float (setup_s r)) reps));
      ("reopen_s_reps", J.List (List.map (fun r -> J.Float (reopen_s r)) reps));
      ("seconds", J.Float seconds); ("segments", J.Int segments); ("reads", J.Int (reads main));
      ("update_samples",
        J.Int (List.fold_left (fun n t -> n + Meter.count t.write_lat) 0 (List.tl runs)));
      ("flushes", J.Int main.flushes); ("par_tasks", J.Int (par1.submitted - par0.submitted));
      ("par_spawned", J.Int par1.spawned); ("trace", J.Bool trace) ]
  in
  { correct = failed = 0 && errors = [] && finite; attempted; failed; metrics; info }

let print_outcome o =
  print_endline (J.to_string ~indent:0 (J.Obj o.info));
  let metric (name, value, unit) =
    (name, J.Obj [ ("value", J.Float (if Float.is_finite value then value else 0.)); ("unit", J.String unit) ])
  in
  print_endline
    (J.to_string ~indent:0
       (J.Obj
          [ ("correct", J.Bool o.correct); ("attempted", J.Int o.attempted); ("failed", J.Int o.failed);
            ("metrics", J.Obj (List.map metric o.metrics)) ]))

(* --- self-test ------------------------------------------------------------ *)

(* Every workload at a tiny scale answers correctly, and an answer
   corrupted on its way out of the read path is counted as failed. *)
let selftest () =
  let check what cond = if not cond then failwith ("self-test: " ^ what) in
  List.iter
    (fun kind ->
      let name = Scenario.name kind in
      let o = execute ~scale:Tiny ~check_paths:false kind ~seed:5 ~seconds:0.2 ~trace:false in
      check (name ^ " runs clean") (o.correct && o.failed = 0 && o.attempted > 0);
      let fired = ref false in
      let corrupt rows = if !fired then rows else (fired := true; [ "corrupted" ] :: rows) in
      let o = execute ~scale:Tiny ~check_paths:false ~corrupt kind ~seed:5 ~seconds:0.2 ~trace:false in
      check (name ^ " counts a corrupted answer") ((not o.correct) && o.failed = 1);
      let o = execute ~scale:Tiny ~check_paths:false kind ~seed:6 ~seconds:0.2 ~trace:true in
      check (name ^ " traced run is clean") o.correct;
      Printf.printf "self-test %s: ok\n%!" name)
    Scenario.all

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME lubm-point | barton-scan | lubm-update");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured loop length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics from a traced loop");
      ("--selftest", Arg.Set self, " check the verification on tiny inputs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else
    match Scenario.of_name !workload with
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    | Some kind ->
        print_outcome (execute kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
