(* Validator for the BENCH_PR<n>.json artifacts the benchmark harness
   emits (bench/main.exe --json): parses the file with Telemetry.Json
   and checks the keys every per-PR benchmark record must carry, so the
   @bench-smoke alias fails loudly when the emission path regresses. *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("bench-check: " ^ msg); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let require ~ctx json key =
  match Telemetry.Json.member key json with
  | Some v -> v
  | None -> fail "%s: missing key %S" ctx key

let require_number ~ctx json key =
  match Telemetry.Json.to_float_opt (require ~ctx json key) with
  | Some f -> f
  | None -> fail "%s: key %S is not a number" ctx key

let check_workload name json =
  let ctx = "workloads." ^ name in
  ignore (require_number ~ctx json "triples");
  ignore (require_number ~ctx json "memory_mb");
  match require ~ctx json "queries" with
  | Telemetry.Json.Obj [] -> fail "%s.queries is empty" ctx
  | Telemetry.Json.Obj queries ->
      List.iter
        (fun (qname, q) ->
          let ctx = ctx ^ ".queries." ^ qname in
          ignore (require_number ~ctx q "seconds");
          match require ~ctx q "probes" with
          | Telemetry.Json.Obj _ -> ()
          | _ -> fail "%s.probes is not an object" ctx)
        queries
  | _ -> fail "%s.queries is not an object" ctx

(* The executor join ablation (top-level "join" section, emitted since
   PR 5): for every BQ-class query the planner's merge/hash picks must
   probe the indices at least 5x less often than the forced nested-loop
   ablation, and — outside the noise-dominated smoke mode — win
   aggregate wall time too. *)
let check_join ~mode json =
  match Telemetry.Json.member "join" json with
  | None | Some Telemetry.Json.Null -> ()
  | Some join -> (
      let ctx = "join" in
      ignore (require_number ~ctx join "triples");
      match require ~ctx join "queries" with
      | Telemetry.Json.Obj [] -> fail "join.queries is empty"
      | Telemetry.Json.Obj queries ->
          let totals =
            List.map
              (fun (qname, q) ->
                let ctx = "join.queries." ^ qname in
                ignore (require_number ~ctx q "rows");
                let arm name =
                  let a = require ~ctx q name in
                  let ctx = ctx ^ "." ^ name in
                  (require_number ~ctx a "seconds", require_number ~ctx a "probes")
                in
                let n_s, n_p = arm "nested" and p_s, p_p = arm "planned" in
                if p_p <= 0. then fail "%s: planned arm made no index probes" ctx;
                if n_p < 5. *. p_p then
                  fail "%s: planned probes (%g) not 5x under nested-loop probes (%g)" ctx
                    p_p n_p;
                Printf.printf "bench-check: %s probe reduction %.1fx (rows unchanged)\n"
                  ctx (n_p /. p_p);
                (n_s, p_s))
              queries
          in
          let nested_s = List.fold_left (fun a (n, _) -> a +. n) 0. totals
          and planned_s = List.fold_left (fun a (_, p) -> a +. p) 0. totals in
          if (not (String.equal mode "smoke")) && planned_s >= nested_s then
            fail "join: planned strategies (%gs) not faster than nested-loop (%gs) overall"
              planned_s nested_s;
          Printf.printf "bench-check: join wall time nested %.4gs vs planned %.4gs\n"
            nested_s planned_s
      | _ -> fail "join.queries is not an object")

(* The PR-7 observability section: the flight recorder's measured
   overhead must stay under the 5% acceptance bar, the traced run must
   actually have recorded events and logged a slow query, and the
   exported scan-size quantiles must be monotone.  Required from PR 7
   on; older artifacts may omit it.  Like the join wall-time check, the
   tight 5% bar only applies outside smoke mode: on the seconds-scale
   smoke store a single BGP count is a few microseconds, so the
   recorder's fixed per-query cost (three clock reads and ring stores)
   is a visible fraction and the bar relaxes to 25%. *)
let check_profiling ~pr ~mode json =
  let ratio_bar = if String.equal mode "smoke" then 1.25 else 1.05 in
  match Telemetry.Json.member "profiling" json with
  | None | Some Telemetry.Json.Null ->
      if pr >= 7 then fail "profiling section missing (required since PR 7)"
  | Some prof ->
      let ctx = "profiling" in
      ignore (require_number ~ctx prof "triples");
      let fr = require ~ctx prof "flight_recorder" in
      let ctx_fr = "profiling.flight_recorder" in
      let off = require_number ~ctx:ctx_fr fr "events_off_seconds" in
      let on = require_number ~ctx:ctx_fr fr "events_on_seconds" in
      let ratio = require_number ~ctx:ctx_fr fr "overhead_ratio" in
      if off <= 0. || on <= 0. then fail "%s: timings must be positive" ctx_fr;
      if ratio >= ratio_bar then
        fail "%s: recorder overhead %.1f%% breaches the %.0f%% bar" ctx_fr
          ((ratio -. 1.) *. 100.)
          ((ratio_bar -. 1.) *. 100.);
      if require_number ~ctx:ctx_fr fr "events_recorded" <= 0. then
        fail "%s: traced arm recorded no events" ctx_fr;
      if require_number ~ctx:ctx_fr fr "events_dropped" < 0. then
        fail "%s: negative drop count" ctx_fr;
      let sq = require ~ctx prof "slow_query" in
      let ctx_sq = "profiling.slow_query" in
      if require_number ~ctx:ctx_sq sq "logged" < 1. then
        fail "%s: zero-threshold run did not log a slow query" ctx_sq;
      let qs = require ~ctx prof "scan_terminal_size_quantiles" in
      let ctx_q = "profiling.scan_terminal_size_quantiles" in
      if require_number ~ctx:ctx_q qs "count" <= 0. then
        fail "%s: histogram has no observations" ctx_q;
      let p50 = require_number ~ctx:ctx_q qs "p50" in
      let p95 = require_number ~ctx:ctx_q qs "p95" in
      let p99 = require_number ~ctx:ctx_q qs "p99" in
      if not (p50 <= p95 && p95 <= p99) then
        fail "%s: quantiles not monotone (p50=%g p95=%g p99=%g)" ctx_q p50 p95 p99;
      Printf.printf
        "bench-check: profiling recorder overhead %.2f%%, scan-size p50/p95/p99 = %g/%g/%g\n"
        ((ratio -. 1.) *. 100.) p50 p95 p99

(* The PR-8 parallel-execution section: the speedup curve over the pool
   widths plus per-arm latency quantiles.  Required from PR 8 on.
   Structural demands are unconditional (positive timings, monotone
   p50/p95/p99, aggregate speedups present per width > 1); the >1x
   aggregate speedup at the widest arm is only demanded when the
   artifact itself reports cores >= 2 and the run is not smoke-sized —
   on a single-core host extra domains cannot win, they can only pay
   handoff overhead, so there the bar is a 0.2x sanity floor. *)
let check_parallel ~pr ~mode json =
  match Telemetry.Json.member "parallel" json with
  | None | Some Telemetry.Json.Null ->
      if pr >= 8 then fail "parallel section missing (required since PR 8)"
  | Some par ->
      let ctx = "parallel" in
      let cores = require_number ~ctx par "cores" in
      ignore (require_number ~ctx par "triples");
      let widths =
        match require ~ctx par "widths" with
        | Telemetry.Json.List ws ->
            List.filter_map Telemetry.Json.to_float_opt ws |> List.map int_of_float
        | _ -> fail "parallel.widths is not a list"
      in
      let max_width = List.fold_left max 1 widths in
      (match require ~ctx par "queries" with
      | Telemetry.Json.Obj [] -> fail "parallel.queries is empty"
      | Telemetry.Json.Obj queries ->
          List.iter
            (fun (qname, q) ->
              let ctx = "parallel.queries." ^ qname in
              if require_number ~ctx q "rows" < 0. then fail "%s: negative row count" ctx;
              List.iter
                (fun w ->
                  let arm = require ~ctx q (Printf.sprintf "d%d" w) in
                  let ctx = Printf.sprintf "%s.d%d" ctx w in
                  if require_number ~ctx arm "seconds" <= 0. then
                    fail "%s: non-positive wall time" ctx;
                  let p50 = require_number ~ctx arm "p50_us" in
                  let p95 = require_number ~ctx arm "p95_us" in
                  let p99 = require_number ~ctx arm "p99_us" in
                  if not (p50 <= p95 && p95 <= p99) then
                    fail "%s: latency quantiles not monotone (p50=%g p95=%g p99=%g)" ctx p50
                      p95 p99)
                widths)
            queries
      | _ -> fail "parallel.queries is not an object");
      let agg = require ~ctx par "aggregate_speedup" in
      List.iter
        (fun w ->
          if w > 1 then begin
            let key = Printf.sprintf "d%d" w in
            let s = require_number ~ctx:"parallel.aggregate_speedup" agg key in
            let bar =
              if w = max_width && cores >= 2. && not (String.equal mode "smoke") then 1.0
              else 0.2
            in
            if s <= bar then
              fail "parallel.aggregate_speedup.%s: %.2fx does not clear the %.1fx bar (%g cores)"
                key s bar cores;
            Printf.printf "bench-check: parallel aggregate speedup at width %d: %.2fx (%g cores)\n"
              w s cores
          end)
        widths

(* The PR-9 pool-accounting section: the parallel figure's widest arm
   re-run with telemetry on, snapshotting [Query.Par.stats] and the
   task wait/run histograms.  Required from PR 9 on.  The invariants
   are the ones the pool's own hammer test enforces, re-checked here on
   the artifact: the per-lane tallies must sum to the completed count,
   nothing may still be queued or in flight after the queries return,
   utilization fractions live in [0,1] and sum to ~1, and the latency
   quantiles are monotone.  All hold at any width/core count, so none
   are mode-gated. *)
let check_pool ~pr json =
  match Telemetry.Json.member "pool" json with
  | None | Some Telemetry.Json.Null ->
      if pr >= 9 then fail "pool section missing (required since PR 9)"
  | Some pool ->
      let ctx = "pool" in
      let num k = require_number ~ctx pool k in
      let width = num "width" and submitted = num "submitted" and completed = num "completed" in
      if width < 1. then fail "%s: width %g < 1" ctx width;
      if submitted <> completed then
        fail "%s: submitted (%g) <> completed (%g) on a quiescent pool" ctx submitted completed;
      if num "queue_depth" <> 0. then fail "%s: queue not drained" ctx;
      if num "in_flight" <> 0. then fail "%s: tasks still in flight" ctx;
      if num "caller_helped" < 0. then fail "%s: negative caller_helped" ctx;
      let floats key =
        match require ~ctx pool key with
        | Telemetry.Json.List vs -> List.filter_map Telemetry.Json.to_float_opt vs
        | _ -> fail "%s.%s is not a list" ctx key
      in
      let lanes = floats "lane_tasks" and utils = floats "utilization" in
      let lane_sum = List.fold_left ( +. ) 0. lanes in
      if lane_sum <> completed then
        fail "%s: lane_tasks sum (%g) <> completed (%g)" ctx lane_sum completed;
      List.iter
        (fun u -> if u < 0. || u > 1. then fail "%s: utilization %g outside [0,1]" ctx u)
        utils;
      let util_sum = List.fold_left ( +. ) 0. utils in
      if completed > 0. && abs_float (util_sum -. 1.) > 1e-6 then
        fail "%s: utilization sums to %g, not 1" ctx util_sum;
      let hist key =
        match require ~ctx pool key with
        | Telemetry.Json.Null -> ()
        | h ->
            let ctx = ctx ^ "." ^ key in
            if require_number ~ctx h "count" < 0. then fail "%s: negative count" ctx;
            let p50 = require_number ~ctx h "p50_us" in
            let p95 = require_number ~ctx h "p95_us" in
            let p99 = require_number ~ctx h "p99_us" in
            if not (p50 <= p95 && p95 <= p99) then
              fail "%s: quantiles not monotone (p50=%g p95=%g p99=%g)" ctx p50 p95 p99
      in
      hist "task_wait_us";
      hist "task_run_us";
      Printf.printf "bench-check: pool width %g ran %g tasks over %d lanes (%g caller-helped)\n"
        width completed (List.length lanes) (num "caller_helped")

(* The PR-10 representation sweep: each load workload rebuilt under
   every index representation, plus the join figure's planned queries
   re-run per representation.  Required from PR 10 on.  The headline
   bars are the PR's acceptance criteria: the compressed (packed)
   representation must shrink the measured store footprint by >= 2.5x
   on {e both} load workloads while keeping the join figure's aggregate
   wall time within 1.3x of Raw.  The wall bar is waived in smoke mode,
   where a single query is microseconds of noise; the memory ratio is a
   structural property of the encoding and holds at any store size. *)
let check_repr ~pr ~mode json =
  match Telemetry.Json.member "repr" json with
  | None | Some Telemetry.Json.Null ->
      if pr >= 10 then fail "repr section missing (required since PR 10)"
  | Some repr ->
      let compressed = [ "packed" ] in
      let all_reprs = "raw" :: compressed in
      let workload_names = [ "lubm"; "barton" ] in
      let workloads =
        match require ~ctx:"repr" repr "workloads" with
        | Telemetry.Json.Obj ws -> ws
        | _ -> fail "repr.workloads is not an object"
      in
      let arm w r =
        match List.assoc_opt w workloads with
        | None -> fail "repr.workloads missing %S" w
        | Some wj -> require ~ctx:("repr.workloads." ^ w) wj r
      in
      List.iter
        (fun w ->
          List.iter
            (fun r ->
              let ctx = Printf.sprintf "repr.workloads.%s.%s" w r in
              let a = arm w r in
              if require_number ~ctx a "memory_mb" <= 0. then
                fail "%s: non-positive memory_mb" ctx;
              if require_number ~ctx a "aggregate_seconds" < 0. then
                fail "%s: negative aggregate wall time" ctx)
            all_reprs)
        workload_names;
      let mem w r =
        require_number ~ctx:(Printf.sprintf "repr.workloads.%s.%s" w r) (arm w r) "memory_mb"
      in
      let join = require ~ctx:"repr" repr "join" in
      let wall r =
        require_number ~ctx:("repr.join." ^ r) (require ~ctx:"repr.join" join r)
          "aggregate_seconds"
      in
      let raw_wall = wall "raw" in
      if raw_wall <= 0. then fail "repr.join.raw: non-positive aggregate wall time";
      let qualifying =
        List.filter
          (fun r ->
            let min_ratio =
              List.fold_left (fun acc w -> min acc (mem w "raw" /. mem w r)) infinity
                workload_names
            in
            let wall_ok = String.equal mode "smoke" || wall r <= 1.3 *. raw_wall in
            List.iter
              (fun w ->
                Printf.printf "bench-check: repr %s on %s: %.2fx smaller (%.2f -> %.2f MB)\n" r
                  w (mem w "raw" /. mem w r) (mem w "raw") (mem w r))
              workload_names;
            Printf.printf "bench-check: repr %s join wall %.4gs vs raw %.4gs (%.2fx)\n" r
              (wall r) raw_wall (wall r /. raw_wall);
            min_ratio >= 2.5 && wall_ok)
          compressed
      in
      if qualifying = [] then
        fail
          "repr: the compressed representation does not clear the bars (>= 2.5x memory \
           reduction on both workloads, join wall within 1.3x of raw)"

let parse_file path =
  match Telemetry.Json.of_string (read_file path) with
  | Ok j -> j
  | Error msg -> fail "%s does not parse: %s" path msg

(* --compare OLD NEW: flag >2x wall-time or probe-count regressions on
   every query the two artifacts share (workload queries by total probe
   count, join queries per arm), plus >1.5x memory_mb growth on shared
   workload figures when both artifacts carry PR 10's exact accounting
   (older gauges were coarse, so cross-era ratios would be noise). *)
let compare_files old_path new_path =
  let old_json = parse_file old_path and new_json = parse_file new_path in
  let regressions = ref [] in
  let flag ?(bar = 2.) what old_v new_v =
    if old_v > 0. && new_v > bar *. old_v then
      regressions := Printf.sprintf "%s: %g -> %g (%.1fx)" what old_v new_v (new_v /. old_v) :: !regressions
  in
  let queries_of ctx json path =
    match
      List.fold_left
        (fun acc key -> Option.bind acc (Telemetry.Json.member key))
        (Some json) path
    with
    | Some (Telemetry.Json.Obj qs) -> qs
    | _ ->
        ignore ctx;
        []
  in
  let probe_total q =
    match Telemetry.Json.member "probes" q with
    | Some (Telemetry.Json.Obj probes) ->
        List.fold_left
          (fun acc (_, v) -> acc +. Option.value ~default:0. (Telemetry.Json.to_float_opt v))
          0. probes
    | Some v -> Option.value ~default:0. (Telemetry.Json.to_float_opt v)
    | None -> 0.
  in
  let seconds q = Option.value ~default:0. (Option.bind (Telemetry.Json.member "seconds" q) Telemetry.Json.to_float_opt) in
  List.iter
    (fun workload ->
      let olds = queries_of workload old_json [ "workloads"; workload; "queries" ]
      and news = queries_of workload new_json [ "workloads"; workload; "queries" ] in
      List.iter
        (fun (qname, oq) ->
          match List.assoc_opt qname news with
          | None -> ()
          | Some nq ->
              flag (workload ^ "." ^ qname ^ ".seconds") (seconds oq) (seconds nq);
              flag (workload ^ "." ^ qname ^ ".probes") (probe_total oq) (probe_total nq))
        olds)
    [ "lubm"; "barton" ];
  let pr_of json =
    match Telemetry.Json.member "pr" json with Some (Telemetry.Json.Int n) -> n | _ -> 0
  in
  if pr_of old_json >= 10 && pr_of new_json >= 10 then begin
    let memory_mb json workload =
      List.fold_left
        (fun acc key -> Option.bind acc (Telemetry.Json.member key))
        (Some json)
        [ "workloads"; workload; "memory_mb" ]
      |> Fun.flip Option.bind Telemetry.Json.to_float_opt
    in
    List.iter
      (fun workload ->
        match (memory_mb old_json workload, memory_mb new_json workload) with
        | Some o, Some n -> flag ~bar:1.5 (workload ^ ".memory_mb") o n
        | _ -> ())
      [ "lubm"; "barton" ]
  end;
  let old_join = queries_of "join" old_json [ "join"; "queries" ]
  and new_join = queries_of "join" new_json [ "join"; "queries" ] in
  List.iter
    (fun (qname, oq) ->
      match List.assoc_opt qname new_join with
      | None -> ()
      | Some nq ->
          List.iter
            (fun arm ->
              match (Telemetry.Json.member arm oq, Telemetry.Json.member arm nq) with
              | Some oa, Some na ->
                  flag ("join." ^ qname ^ "." ^ arm ^ ".seconds") (seconds oa) (seconds na);
                  flag ("join." ^ qname ^ "." ^ arm ^ ".probes") (probe_total oa) (probe_total na)
              | _ -> ())
            [ "nested"; "planned" ])
    old_join;
  match List.rev !regressions with
  | [] -> Printf.printf "bench-check: no >2x regressions from %s to %s\n" old_path new_path
  | regs ->
      List.iter (fun r -> prerr_endline ("bench-check: regression " ^ r)) regs;
      fail "%d regression(s) from %s to %s" (List.length regs) old_path new_path

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | [| _; "--compare"; old_path; new_path |] ->
        compare_files old_path new_path;
        exit 0
    | _ -> fail "usage: bench_check FILE.json | bench_check --compare OLD.json NEW.json"
  in
  let json = parse_file path in
  (match require ~ctx:"root" json "schema" with
  | Telemetry.Json.String "hexastore-bench/v1" -> ()
  | _ -> fail "schema is not \"hexastore-bench/v1\"");
  let mode =
    match require ~ctx:"root" json "mode" with
    | Telemetry.Json.String m -> m
    | _ -> fail "mode is not a string"
  in
  let pr =
    match Telemetry.Json.member "pr" json with
    | Some (Telemetry.Json.Int n) -> n
    | _ -> 0
  in
  let workloads = require ~ctx:"root" json "workloads" in
  check_workload "lubm" (require ~ctx:"workloads" workloads "lubm");
  check_workload "barton" (require ~ctx:"workloads" workloads "barton");
  check_join ~mode json;
  check_profiling ~pr ~mode json;
  check_parallel ~pr ~mode json;
  check_pool ~pr json;
  check_repr ~pr ~mode json;
  let overhead = require ~ctx:"root" json "telemetry_overhead" in
  let off = require_number ~ctx:"telemetry_overhead" overhead "disabled_seconds" in
  let on = require_number ~ctx:"telemetry_overhead" overhead "enabled_seconds" in
  if off <= 0. || on <= 0. then fail "telemetry_overhead timings must be positive";
  let figures =
    match require ~ctx:"root" json "figures" with
    | Telemetry.Json.List figs -> figs
    | _ -> fail "figures is not a list"
  in
  (* When the artifact carries the load ablation, it must compare all
     five write paths, and delta update staging must beat per-triple
     insertion at the largest sweep (the PR 3 headline number). *)
  let is_figure name fig =
    match Telemetry.Json.member "figure" fig with
    | Some (Telemetry.Json.String n) -> String.equal n name
    | _ -> false
  in
  (match List.find_opt (is_figure "abl-load") figures with
  | None -> ()
  | Some fig ->
      let points =
        match require ~ctx:"abl-load" fig "points" with
        | Telemetry.Json.List pts -> pts
        | _ -> fail "abl-load.points is not a list"
      in
      let decoded =
        List.map
          (fun p ->
            let ctx = "abl-load.points" in
            let size = int_of_float (require_number ~ctx p "size") in
            let meth =
              match require ~ctx p "method" with
              | Telemetry.Json.String m -> m
              | _ -> fail "%s: method is not a string" ctx
            in
            (size, meth, require_number ~ctx p "seconds"))
          points
      in
      List.iter
        (fun m ->
          if not (List.exists (fun (_, m', _) -> String.equal m m') decoded) then
            fail "abl-load is missing the %S series" m)
        [ "bulk"; "incremental"; "delta"; "update-pertriple"; "update-delta" ];
      let largest = List.fold_left (fun acc (n, _, _) -> max acc n) 0 decoded in
      let at size meth =
        match
          List.find_opt (fun (n, m, _) -> n = size && String.equal m meth) decoded
        with
        | Some (_, _, s) -> s
        | None -> fail "abl-load: no %S point at size %d" meth size
      in
      let upd_triple = at largest "update-pertriple"
      and upd_delta = at largest "update-delta" in
      if upd_delta <= 0. then fail "abl-load: non-positive update-delta timing";
      if upd_delta >= upd_triple then
        fail "abl-load: delta staging (%gs) not faster than per-triple updates (%gs)"
          upd_delta upd_triple;
      Printf.printf
        "bench-check: abl-load update staging speedup at %d-triple base: %.1fx\n"
        largest (upd_triple /. upd_delta);
      Printf.printf "bench-check: abl-load full-load incremental/delta at %d: %.1fx\n"
        largest (at largest "incremental" /. at largest "delta"));
  Printf.printf "bench-check: %s OK\n" path
