(** Pull-based monitoring: registry snapshots diffed into rate views.

    {!sample} captures every registered metric — counter and gauge
    values, histogram count/sum and p50/p95/p99 estimates — together
    with the recorder's ring accounting.  {!diff} turns two samples
    into a {!view}: counters and histogram counts become per-second
    rates over the interval, gauges and quantiles are reported at the
    newer sample.  {!watch} packages the
    keep-the-previous-sample loop for callers that poll on a cadence
    (the [hexastore top] CLI).

    The monitor owns no state and spawns no domains; it reads the same
    atomics the instrumented layers mutate, so sampling is safe while
    pool domains are mid-query.  With [Telemetry.enabled] off the
    registry does not move and every rate reads 0. *)

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
  taken_at : float;  (** {!Clock.now} at capture *)
  metrics : (string * metric_sample) list;  (** name-sorted *)
  s_recorded : int;  (** {!Trace.recorded} *)
  s_dropped : int;  (** {!Trace.dropped} *)
}

val sample : unit -> sample

type row =
  | Counter_rate of {
      total : int;
      rate : float;  (** increments per second over the interval *)
    }
  | Gauge_level of { value : float }
  | Histogram_rate of {
      count : int;
      rate : float;  (** observations per second over the interval *)
      p50 : float;
      p95 : float;
      p99 : float;   (** quantiles are lifetime estimates at the newer
                         sample, not interval-local *)
    }

type view = {
  at : float;
  interval_s : float;
  rows : (string * row) list;  (** one row per metric in the newer sample *)
  recorded : int;
  recorded_rate : float;  (** recorder entries per second over the interval *)
  dropped : int;
}

val diff : sample -> sample -> view
(** [diff prev next].  Metrics absent from [prev] (registered between
    the samples) rate from zero; a non-positive interval yields zero
    rates. *)

val watch : unit -> unit -> view
(** [watch ()] takes a baseline sample and returns a step function:
    each call samples, diffs against the previous sample and advances
    the baseline. *)

val view_to_json : view -> Json.t

val pp_view : Format.formatter -> view -> unit
(** Sectioned text table (counters / gauges / histograms), one line per
    metric — the [hexastore top] screen body. *)
