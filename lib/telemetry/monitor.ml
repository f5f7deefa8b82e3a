(* Pull-based monitoring over the metrics registry: capture a snapshot
   of every registered metric (plus the recorder's ring accounting),
   diff two snapshots into a rate-computed view, and render it as text
   or JSON.

   The monitor deliberately owns no state and spawns nothing: a watcher
   (the [hexastore top] CLI, a future serving endpoint) keeps the
   previous sample and calls [diff] at its own cadence.  Sampling holds
   the registry lock only long enough to list the metrics; counter and
   gauge cells are atomics, so the values read are each individually
   consistent even while pool domains keep mutating them. *)

type hist_sample = {
  hs_count : int;
  hs_sum : int;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

type metric_sample =
  | S_counter of int
  | S_gauge of float
  | S_histogram of hist_sample

type sample = {
  taken_at : float;
  metrics : (string * metric_sample) list;
  s_recorded : int;
  s_dropped : int;
}

let sample_histogram h =
  {
    hs_count = Histogram.count h;
    hs_sum = Histogram.sum h;
    hs_p50 = Histogram.quantile h 0.5;
    hs_p95 = Histogram.quantile h 0.95;
    hs_p99 = Histogram.quantile h 0.99;
  }

let sample () =
  let metrics =
    Metrics.fold
      (fun acc name m ->
        let s =
          match m with
          | Metrics.Counter c -> S_counter (Metrics.value c)
          | Metrics.Gauge g -> S_gauge (Metrics.gauge_value g)
          | Metrics.Histogram h -> S_histogram (sample_histogram h)
        in
        (name, s) :: acc)
      []
    |> List.rev
  in
  {
    taken_at = Clock.now ();
    metrics;
    s_recorded = Trace.recorded ();
    s_dropped = Trace.dropped ();
  }

(* --- views -------------------------------------------------------------- *)

type row =
  | Counter_rate of {
      total : int;
      rate : float; (* increments per second over the interval *)
    }
  | Gauge_level of { value : float }
  | Histogram_rate of {
      count : int;
      rate : float; (* observations per second over the interval *)
      p50 : float;
      p95 : float;
      p99 : float;
    }

type view = {
  at : float;
  interval_s : float;
  rows : (string * row) list;
  recorded : int;
  recorded_rate : float;
  dropped : int;
}

let per_second dt delta = if dt > 0. then float_of_int delta /. dt else 0.

let diff prev next =
  let dt = next.taken_at -. prev.taken_at in
  let old name = List.assoc_opt name prev.metrics in
  let rows =
    List.map
      (fun (name, s) ->
        let r =
          match s with
          | S_counter v ->
              let v0 = match old name with Some (S_counter v0) -> v0 | _ -> 0 in
              Counter_rate { total = v; rate = per_second dt (v - v0) }
          | S_gauge v -> Gauge_level { value = v }
          | S_histogram h ->
              let c0 = match old name with Some (S_histogram h0) -> h0.hs_count | _ -> 0 in
              Histogram_rate
                {
                  count = h.hs_count;
                  rate = per_second dt (h.hs_count - c0);
                  p50 = h.hs_p50;
                  p95 = h.hs_p95;
                  p99 = h.hs_p99;
                }
        in
        (name, r))
      next.metrics
  in
  {
    at = next.taken_at;
    interval_s = dt;
    rows;
    recorded = next.s_recorded;
    recorded_rate = per_second dt (next.s_recorded - prev.s_recorded);
    dropped = next.s_dropped;
  }

let watch () =
  let prev = ref (sample ()) in
  fun () ->
    let next = sample () in
    let v = diff !prev next in
    prev := next;
    v

(* --- rendering ---------------------------------------------------------- *)

let row_to_json = function
  | Counter_rate { total; rate } ->
      Json.Obj
        [
          ("type", Json.String "counter");
          ("total", Json.Int total);
          ("per_s", Json.Float rate);
        ]
  | Gauge_level { value } ->
      Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float value) ]
  | Histogram_rate { count; rate; p50; p95; p99 } ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int count);
          ("per_s", Json.Float rate);
          ("p50", Json.Float p50);
          ("p95", Json.Float p95);
          ("p99", Json.Float p99);
        ]

let view_to_json v =
  Json.Obj
    [
      ("at", Json.Float v.at);
      ("interval_s", Json.Float v.interval_s);
      ("metrics", Json.Obj (List.map (fun (n, r) -> (n, row_to_json r)) v.rows));
      ( "recorder",
        Json.Obj
          [
            ("recorded", Json.Int v.recorded);
            ("per_s", Json.Float v.recorded_rate);
            ("dropped", Json.Int v.dropped);
          ] );
    ]

let pp_view ppf v =
  Format.fprintf ppf "@[<v>interval %.3fs@," v.interval_s;
  (* Three fixed sections (counters, gauges, histograms) rather than
     interleaving by name order, so related quantities line up under one
     column header. *)
  let counters =
    List.filter_map
      (fun (n, r) -> match r with Counter_rate c -> Some (n, c.total, c.rate) | _ -> None)
      v.rows
  and gauges =
    List.filter_map
      (fun (n, r) -> match r with Gauge_level g -> Some (n, g.value) | _ -> None)
      v.rows
  and hists =
    List.filter_map
      (fun (n, r) ->
        match r with
        | Histogram_rate { count; rate; p50; p95; p99 } -> Some (n, count, rate, p50, p95, p99)
        | _ -> None)
      v.rows
  in
  if counters <> [] then begin
    Format.fprintf ppf "%s@," (Printf.sprintf "%-44s %10s %9s" "counters:" "total" "/s");
    List.iter
      (fun (name, total, rate) -> Format.fprintf ppf "  %-42s %10d %9.1f@," name total rate)
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter (fun (name, value) -> Format.fprintf ppf "  %-42s %10g@," name value) gauges
  end;
  if hists <> [] then begin
    Format.fprintf ppf "%s@,"
      (Printf.sprintf "%-44s %10s %9s %9s %9s %9s" "histograms:" "count" "/s" "p50" "p95" "p99");
    List.iter
      (fun (name, count, rate, p50, p95, p99) ->
        Format.fprintf ppf "  %-42s %10d %9.1f %9.1f %9.1f %9.1f@," name count rate p50 p95 p99)
      hists
  end;
  Format.fprintf ppf "recorder: recorded=%d (%.1f/s) dropped=%d@]" v.recorded v.recorded_rate
    v.dropped
