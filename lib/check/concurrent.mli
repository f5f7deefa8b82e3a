(** Concurrency correctness harness for the domain-parallel executor.

    Two instruments over {!Query.Par}'s fan-out and {!Hexa.Delta}'s
    snapshot-pinning protocol, both reporting {!Violation.t} lists like
    the rest of the check library (empty = correct):

    - {!differential} checks parallel ≡ sequential execution on one
      store and BGP — the qcheck property in the test suite drives it
      over ~1,000 random BGPs × four store kinds × widths 1/2/4.
    - {!stress} races one writer domain (staging, flushing, compacting a
      delta store mirrored into {!Model}) against N reader domains that
      continuously pin snapshots and verify query results on them. *)

val brute_force : Hexa.Store_sig.boxed -> Query.Algebra.tp list -> int list list
(** Id-level brute-force BGP evaluation over the store's merged triple
    set: canonical solutions, each the sorted BGP variables' bound ids
    in variable order, the whole list sorted.  The reference both checks
    below compare against. *)

val snapshot_consistent : Hexa.Store_sig.boxed -> Query.Algebra.tp list -> Violation.t list
(** Run the BGP through {!Query.Exec.run} under the planner's current
    parallel settings and compare canonically against {!brute_force}.
    Mutates no global state, so reader domains may call it concurrently
    (each on its own pinned view). *)

val differential :
  Hexa.Store_sig.boxed -> Query.Algebra.tp list -> domains:int -> Violation.t list
(** [differential store tps ~domains] runs the BGP sequentially (width
    1, fan-out disabled) and in parallel (width [domains],
    {!Query.Planner.parallel_min_rows} forced to 0) and demands the
    {e ordered} solution lists agree — parallel range concatenation must
    reproduce the sequential order exactly — plus a canonical comparison
    against {!brute_force}.  Temporarily mutates the width and planner
    threshold: single-threaded callers only. *)

(** {1 Writer-vs-readers stress} *)

type stress_config = {
  readers : int;  (** reader domains pinning and querying (>= 1) *)
  rounds : int;  (** writer flush/compact rounds *)
  ops_per_round : int;  (** random add/remove mutations per round *)
  domains : int;  (** executor fan-out width during the run *)
  seed : int;  (** PRNG seed: same seed, same mutation sequence *)
}

val default_stress : stress_config
(** 2 readers × 4 rounds × 64 ops, width 2, seed 42 — the CI smoke
    shape. *)

type stress_report = {
  ops : int;  (** mutations applied *)
  flushes : int;  (** explicit flushes (auto-flushes not counted) *)
  compactions : int;
  level_merges : int;  (** auto-flushes that left the writes in the sorted level *)
  migrations : int;  (** auto-flushes that moved the level into the base *)
  queries : int;  (** queries executed across all readers *)
  violations : Violation.t list;  (** empty = the run was correct *)
}

val stress : stress_config -> stress_report
(** Run the race: the calling domain is the writer, staging random
    mutations into a {!Hexa.Delta} (mirrored into {!Model}) and
    flushing — every third round compacting — between rounds, while the
    reader domains loop {!Hexa.Store_sig.pin} → {!snapshot_consistent} →
    unpin.  Thresholds of a few writes over a seeded base make the
    writes auto-flush into the sorted level while pins are held, and
    the level migrate into the base.  After every flush the writer
    validates {!Invariant.delta} and compares the merged contents
    against the model; mutation return values are checked against the
    model op by op.  After the readers join, no pin may be held and the
    pool must be drained.  Violations are capped at 100; the report's
    counters are exact.  Sets the pool width
    and planner threshold for the duration (restored before
    returning). *)
