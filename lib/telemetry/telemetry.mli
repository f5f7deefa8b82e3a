(** Telemetry: the observability layer.

    A process-wide metrics registry (monotonic counters, gauges,
    log-spaced histograms — {!Metrics}, {!Histogram}), one recorder of
    spans and events with an injectable clock ({!Trace}, {!Clock}), and
    a dependency-free JSON document model ({!Json}) used for every
    machine-readable export (the registry dump, EXPLAIN plans,
    [BENCH_*.json]).

    Two settings govern recording.  The master gate {!enabled} is off
    by default, and then every metric and span hook in the instrumented
    layers costs one flag read and allocates nothing; on
    ([HEXASTORE_TELEMETRY=1] or setting the ref), counters, scan-size
    histograms and operator spans are collected and can be exported
    with {!report} / {!to_json}.  The recorder ({!Trace}) keeps the
    newest entries of one ring per domain: spans while the gate is on,
    and operational events (query boundaries, plan choices, delta
    flushes, snapshot IO, slow queries) always — the flight recorder.
    [Trace.set_capacity 0] records nothing.  [HEXASTORE_SLOW_MS] sets
    the slow-query threshold.

    Views over those sit on top: {!Profile}, per-query registry+GC
    snapshot/diff and the slow-query view of the ring; {!Export},
    Chrome trace-event JSON for spans (per-domain lanes) and Prometheus
    text exposition (with {!Histogram.quantile} estimates) for the
    registry; and {!Monitor}, registry snapshots diffed into
    rate-computed views for live watching ([hexastore top]). *)

module Config = Config
module Clock = Clock
module Json = Json
module Histogram = Histogram
module Metrics = Metrics
module Trace = Trace
module Profile = Profile
module Export = Export
module Monitor = Monitor

val enabled : bool ref
(** The master gate ({!Config.enabled}); defaults to [false] unless
    [HEXASTORE_TELEMETRY=1] (or [true]/[on]) is exported. *)

val activity_count : unit -> int
(** {!Config.activity_count}: proves in tests that no hook ran. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the gate forced to a value, restoring it afterwards. *)

val report : Format.formatter -> unit -> unit
(** Human-readable dump: the registry, the slow queries, then the
    recorder. *)

val to_json : unit -> Json.t
(** [{"metrics": ..., "events": ..., "slow_queries": ...}]: the
    registry, {!Trace.to_json} and {!Profile.slow_log_to_json}. *)

val reset : unit -> unit
(** Zero all metrics, clear the recorder and zero the slow count. *)
