(* Per-query profiling: snapshot/diff of the metrics registry plus GC
   allocation counters, and the slow-query view over the recorder that
   those diffs feed.

   The profiler does not know about query plans — callers (the CLI, the
   bench) render the EXPLAIN tree themselves and hand it over as a
   thunk, so the expensive [--analyze] string is only materialised for
   queries that actually cross the slow threshold. *)

type snapshot = {
  at : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  counters : (string * int) list; (* name-sorted, from Metrics.snapshot_counters *)
}

type delta = Trace.delta = {
  wall_s : float;
  alloc_minor_words : float;
  alloc_major_words : float;
  alloc_words : float;
  counters : (string * int) list;
}

(* Safe to call from any domain: [Metrics.snapshot_counters] walks the
   registry under its lock (so a racing lazy registration — e.g. a pool
   lane counter — cannot tear the listing) and the counter cells it
   reads are atomics.  GC numbers are the calling domain's own. *)
let snapshot () =
  let st = Gc.quick_stat () in
  {
    at = Clock.now ();
    (* Not [st.minor_words]: quick_stat omits words allocated since the
       last minor collection, which is exactly the window a per-query
       profile cares about.  [Gc.minor_words] reads the live pointer. *)
    minor_words = Gc.minor_words ();
    major_words = st.Gc.major_words;
    promoted_words = st.Gc.promoted_words;
    counters = Metrics.snapshot_counters ();
  }

(* Merge two name-sorted counter lists into non-zero deltas.  Counters
   registered between the snapshots (absent from [before]) count from
   zero; counters only in [before] cannot shrink (monotonic), so the
   symmetric case keeps the -v_a delta for honesty under resets. *)
let diff_counters before after =
  let rec go a b acc =
    match (a, b) with
    | [], [] -> List.rev acc
    | [], (n, v) :: b -> go [] b (if v <> 0 then (n, v) :: acc else acc)
    | (n, v) :: a, [] -> go a [] (if v <> 0 then (n, -v) :: acc else acc)
    | ((na, va) :: a' as a), ((nb, vb) :: b' as b) ->
        let c = compare na nb in
        if c = 0 then go a' b' (if vb - va <> 0 then (na, vb - va) :: acc else acc)
        else if c < 0 then go a' b (if va <> 0 then (na, -va) :: acc else acc)
        else go a b' (if vb <> 0 then (nb, vb) :: acc else acc)
  in
  go before after []

let diff before after =
  let minor = after.minor_words -. before.minor_words in
  let major = after.major_words -. before.major_words in
  let promoted = after.promoted_words -. before.promoted_words in
  {
    wall_s = after.at -. before.at;
    alloc_minor_words = minor;
    alloc_major_words = major;
    alloc_words = minor +. major -. promoted;
    counters = diff_counters before.counters after.counters;
  }

let profiled f =
  let before = snapshot () in
  let x = f () in
  (x, diff before (snapshot ()))

let counter_delta d name = match List.assoc_opt name d.counters with Some v -> v | None -> 0

let counter_total ?(prefix = "") d =
  List.fold_left
    (fun acc (name, v) -> if String.starts_with ~prefix name then acc + v else acc)
    0 d.counters

let delta_to_json = Trace.delta_to_json

(* --- slow-query view ---------------------------------------------------- *)

let default_threshold_s () =
  match Sys.getenv_opt "HEXASTORE_SLOW_MS" with
  | Some s -> ( match float_of_string_opt s with Some ms when ms >= 0. -> ms /. 1e3 | _ -> infinity)
  | None -> infinity

(* domain-safety: telemetry-gated — slow-query cut-off in seconds; set
   from the environment at module init, reassigned only by the CLI /
   tests around whole runs.  Diagnostic routing only. *)
let threshold_s = ref (default_threshold_s ())

(* domain-safety: atomic — threshold crossings since the last [clear],
   including entries the ring has since overwritten; bumped lock-free by
   whichever domain notes a slow query. *)
let slow_total = Atomic.make 0

let set_threshold_s s = threshold_s := s

let slow_threshold_s () = !threshold_s

let note ~label ~plan d =
  if d.wall_s >= !threshold_s then begin
    Atomic.incr slow_total;
    Trace.emit (Trace.Slow_query { label; plan = plan (); delta = d })
  end

let slow_queries () =
  List.filter
    (fun (e : Trace.entry) -> match e.kind with Trace.Slow_query _ -> true | _ -> false)
    (Trace.events ())

let slow_count () = Atomic.get slow_total

let clear () = Atomic.set slow_total 0

let slow_log_to_json () =
  Json.Obj
    [
      ("threshold_s", if Float.is_finite !threshold_s then Json.Float !threshold_s else Json.Null);
      ("total", Json.Int (slow_count ()));
      ("entries", Json.List (List.map Trace.entry_to_json (slow_queries ())));
    ]

let pp_slow_log ppf () =
  Format.fprintf ppf "@[<v>";
  (match slow_queries () with
  | [] -> Format.fprintf ppf "(no slow queries)@,"
  | entries ->
      List.iter
        (fun (e : Trace.entry) ->
          match e.kind with
          | Trace.Slow_query { label; plan; delta } ->
              Format.fprintf ppf "%s wall=%.3fms@,  @[<v>%a@]@," label (delta.wall_s *. 1e3)
                Trace.pp_block plan
          | _ -> ())
        entries);
  Format.fprintf ppf "@]"
