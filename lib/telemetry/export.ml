(* Standard exposition formats over the telemetry state:

   - Chrome trace-event JSON ("complete" [ph:"X"] events, microsecond
     units) from the recorder's spans, loadable in chrome://tracing and
     Perfetto;
   - Prometheus text exposition (version 0.0.4) from the metrics
     registry, with histogram quantile estimates as a companion gauge
     family and the recorder's ring accounting appended as synthesised
     series. *)

(* --- Chrome trace-event JSON ------------------------------------------- *)

(* Chrome renders one lane per (pid, tid); mapping tid to the span's
   domain makes a fanned query read as per-domain lanes.  Raw domain
   ids grow without bound across spawns, so the exported tid is the
   1-based rank of the span's domain among the distinct domains in the
   dump — stable across runs (the single-domain case keeps the
   historical tid=1) — and a thread_name metadata event names each
   lane. *)

let domain_ranks spans =
  let doms =
    List.sort_uniq compare (List.map (fun (s : Trace.entry) -> s.Trace.dom) spans)
  in
  fun dom ->
    let rec rank i = function
      | [] -> 1 (* unseen domain: a span list not from [spans]; lane 1 *)
      | d :: tl -> if d = dom then i else rank (i + 1) tl
    in
    rank 1 doms

let span_to_trace_event ?(tid_of = fun _ -> 1) (s : Trace.entry) =
  Json.Obj
    [
      ("name", Json.String (Trace.name s));
      ("cat", Json.String "hexastore");
      ("ph", Json.String "X");
      ("ts", Json.Float (s.Trace.at *. 1e6));
      ("dur", Json.Float (s.Trace.duration *. 1e6));
      ("pid", Json.Int 1);
      ("tid", Json.Int (tid_of s.Trace.dom));
      ( "args",
        Json.Obj
          ([ ("depth", Json.Int s.Trace.depth); ("id", Json.Int s.Trace.id) ]
          @ (match s.Trace.parent with
            | None -> []
            | Some p -> [ ("parent", Json.Int p) ])
          @ [ ("dom", Json.Int s.Trace.dom) ]) );
    ]

let thread_name_event tid =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "lane %d" tid)) ]);
    ]

let chrome_trace_of_spans spans =
  let tid_of = domain_ranks spans in
  let tids = List.sort_uniq compare (List.map (fun (s : Trace.entry) -> tid_of s.Trace.dom) spans) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map thread_name_event tids
          @ List.map (fun s -> span_to_trace_event ~tid_of s) spans) );
      ("displayTimeUnit", Json.String "ms");
    ]

let chrome_trace () = chrome_trace_of_spans (Trace.spans ())

(* --- Prometheus text exposition ---------------------------------------- *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
   map dots (and anything else) to underscores. *)
let metric_name name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let float_repr f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" f

let quantiles = [ ("0.5", 0.5); ("0.95", 0.95); ("0.99", 0.99) ]

let add_histogram buf name h =
  let n = metric_name name in
  Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
  let cum =
    Histogram.fold_buckets
      (fun cum ~le ~count ->
        let cum = cum + count in
        Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n le cum);
        cum)
      0 h
  in
  ignore cum;
  Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h));
  Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n (Histogram.sum h));
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Histogram.count h));
  if Histogram.count h > 0 then begin
    Buffer.add_string buf (Printf.sprintf "# TYPE %s_quantile gauge\n" n);
    List.iter
      (fun (label, q) ->
        Buffer.add_string buf
          (Printf.sprintf "%s_quantile{quantile=\"%s\"} %s\n" n label
             (float_repr (Histogram.quantile h q))))
      quantiles
  end

let prometheus () =
  let buf = Buffer.create 4096 in
  Metrics.fold
    (fun () name m ->
      match m with
      | Metrics.Counter c ->
          let n = metric_name name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
          Buffer.add_string buf (Printf.sprintf "%s %d\n" n (Metrics.value c))
      | Metrics.Gauge g ->
          let n = metric_name name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string buf (Printf.sprintf "%s %s\n" n (float_repr (Metrics.gauge_value g)))
      | Metrics.Histogram h -> add_histogram buf name h)
    ();
  (* The recorder's ring accounting lives outside the registry (events
     are recorded even with telemetry off); synthesise its series here
     so a scrape sees the drop counts. *)
  let synth ty n v =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" n ty);
    Buffer.add_string buf (Printf.sprintf "%s %d\n" n v)
  in
  synth "counter" "telemetry_recorder_recorded" (Trace.recorded ());
  synth "counter" "telemetry_recorder_dropped" (Trace.dropped ());
  synth "gauge" "telemetry_recorder_capacity" (Trace.capacity ());
  Buffer.contents buf
