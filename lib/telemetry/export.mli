(** Standard exposition formats over the telemetry state.

    {!chrome_trace} renders the recorder's spans as Chrome trace-event JSON
    (one "complete" [ph:"X"] event per span, microsecond units) —
    loadable in [chrome://tracing] or Perfetto.

    {!prometheus} renders the metrics registry as Prometheus text
    exposition (format 0.0.4): counters and gauges verbatim, histograms
    as cumulative [_bucket{le=...}] series plus [_sum]/[_count], with
    p50/p95/p99 estimates from {!Histogram.quantile} as a companion
    [<name>_quantile] gauge family.  The recorder's ring accounting
    ([telemetry_recorder_recorded] / [_dropped] / [_capacity]) is
    appended as synthesised series, since events are recorded outside
    the registry gate. *)

val span_to_trace_event : ?tid_of:(int -> int) -> Trace.entry -> Json.t
(** One [ph:"X"] event; [tid_of] maps the span's domain id to the
    emitted [tid] (default: constant 1).  [args] carries the span's
    depth, id, parent (when present) and raw domain id. *)

val chrome_trace_of_spans : Trace.entry list -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Spans are
    assigned one [tid] lane per distinct domain (1-based rank of the
    domain id, so a single-domain dump keeps [tid=1] and ranks are
    stable run to run), preceded by [thread_name] metadata events
    naming each lane. *)

val chrome_trace : unit -> Json.t
(** {!chrome_trace_of_spans} over {!Trace.spans}. *)

val metric_name : string -> string
(** Sanitise a dotted metric name for Prometheus ([.] → [_]). *)

val prometheus : unit -> string
(** The full registry + ring accounting as text exposition. *)
