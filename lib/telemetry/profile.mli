(** Per-query profiling and the slow-query view.

    {!snapshot} captures the metrics registry (every counter, name
    sorted) together with the GC's allocation counters and the clock;
    {!diff} turns two snapshots into a {!delta} — wall seconds,
    minor/major words allocated and the non-zero counter movements.
    {!profiled} wraps a thunk in the pair.

    Counter deltas are only as complete as the instrumentation that
    feeds them: with [Telemetry.enabled] off the registry does not move
    and a delta degrades gracefully to wall time + GC words.

    The {b slow-query view}: {!note} records a query whose wall time
    crossed {!slow_threshold_s} (default [infinity]; export
    [HEXASTORE_SLOW_MS] or call {!set_threshold_s}) as a
    [Trace.Slow_query] entry carrying its rendered [--analyze] plan —
    supplied lazily, so fast queries never pay for it — and its
    {!delta}.  {!slow_queries} filters the recorder's dump, so slow
    entries rotate out with the ring like every other entry;
    {!slow_count} stays exact. *)

type snapshot = {
  at : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  counters : (string * int) list;
}

type delta = Trace.delta = {
  wall_s : float;
  alloc_minor_words : float;
  alloc_major_words : float;
  alloc_words : float;  (** minor + major - promoted: total words allocated *)
  counters : (string * int) list;  (** non-zero deltas, name-sorted *)
}

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> delta

val profiled : (unit -> 'a) -> 'a * delta
(** [profiled f] runs [f] between two snapshots. *)

val counter_delta : delta -> string -> int
(** A single counter's movement ([0] when absent). *)

val counter_total : ?prefix:string -> delta -> int
(** Sum of deltas whose name starts with [prefix] (default: all). *)

val delta_to_json : delta -> Json.t

(** {2 Slow-query view} *)

val set_threshold_s : float -> unit

val slow_threshold_s : unit -> float

val note : label:string -> plan:(unit -> string) -> delta -> unit
(** Record [delta] under [label] if it crossed the threshold; [plan] is
    forced only then. *)

val slow_queries : unit -> Trace.entry list
(** The [Slow_query] entries still in the recorder, oldest first. *)

val slow_count : unit -> int
(** Total threshold crossings since the last {!clear}, including
    entries the ring has since overwritten. *)

val clear : unit -> unit
(** Zero {!slow_count} (the entries themselves go with [Trace.clear]). *)

val slow_log_to_json : unit -> Json.t
(** [{"threshold_s", "total", "entries": [...]}], each entry as
    {!Trace.entry_to_json} renders it (label, plan, profile, at, ...). *)

val pp_slow_log : Format.formatter -> unit -> unit
