(** A fixed-size OCaml 5 domain pool for intra-query parallelism.

    The executor fans a BGP's driving scan across [domains ()] lanes:
    the caller of {!run} plus [domains () - 1] lazily spawned worker
    domains sharing one job queue.  Pool size comes from the
    [HEXASTORE_DOMAINS] environment variable when set (clamped to
    [1, 64]), else [Domain.recommended_domain_count ()].  With a size of
    1 nothing is ever spawned and {!run} degenerates to a sequential
    loop.  An [at_exit] hook joins the workers, so processes exit
    cleanly whether or not they ever went parallel.

    The pool is instrumented end to end: always-on atomic tallies back
    the {!stats} snapshot (exact with telemetry off), and the same
    sites feed the registry — [par.tasks.*] / [par.domains.*] counters,
    [par.queue.depth] / [par.tasks.in_flight] / [par.pool.size] gauges,
    [par.task.wait_us] / [par.task.run_us] histograms and lazily
    registered [par.lane.<i>.tasks] per-lane counters — for the
    Prometheus exposition and [Telemetry.Monitor].  Lane 0 is every
    caller domain; lanes 1.. are the spawned workers. *)

val domains : unit -> int
(** Configured fan-out width (>= 1).  The planner reads this on every
    BGP to decide whether parallel scan ranges are worth planning. *)

val set_domains : int -> unit
(** Set the fan-out width (clamped to [1, 64]).  Already-spawned workers
    are kept (the pool never shrinks); missing ones are spawned on the
    next parallel {!run}. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the width set to [n], restoring the
    previous width afterwards.  Used by the differential tests and the
    bench's speedup arms. *)

val run : (unit -> 'a) array -> 'a array
(** [run fs] evaluates every thunk, in parallel when the width and batch
    size allow, and returns their results in slot order.  The calling
    domain participates (it helps drain the queue rather than block), so
    concurrent or nested [run] calls cannot deadlock.  If a thunk
    raises, the batch still completes and the first-slot exception is
    re-raised in the caller.  Thunks must be safe to run on any domain:
    for store scans that means one {!Hexa.Store_sig.seek_sorted} cursor
    per thunk over a pinned view. *)

val pool_size : unit -> int
(** Lanes currently backing {!run}: spawned workers + the caller.  1
    until a parallel [run] first spawns. *)

val shutdown : unit -> unit
(** Join all workers (normally invoked by the [at_exit] hook; exposed
    for tests).  The pool respawns lazily on the next parallel
    {!run}. *)

(** {1 Pool telemetry} *)

type stats = {
  width : int;          (** configured fan-out ({!domains}) *)
  pool : int;           (** live lanes: spawned workers + the caller *)
  queue_depth : int;    (** jobs enqueued and not yet started *)
  in_flight : int;      (** jobs started and not yet finished *)
  submitted : int;      (** tasks handed to the pool, ever (including
                            the sequential fast path) *)
  completed : int;      (** tasks finished, ever *)
  caller_helped : int;  (** queue pops by caller lanes draining jobs
                            instead of blocking *)
  spawned : int;        (** worker domains ever spawned *)
  joined : int;         (** worker domains joined by {!shutdown} *)
  lane_tasks : int array;
      (** tasks per lane, index 0 = callers, 1.. = workers; trimmed to
          the highest active lane.  Sums to [completed] when the pool
          is quiescent. *)
}

val stats : unit -> stats
(** Snapshot of the pool accounting.  The atomic tallies are exact and
    always on (no telemetry gate); [queue_depth] and [pool] are read
    under the pool lock.  Counter pairs ([submitted]/[completed]) are
    read independently, so a snapshot taken mid-batch may observe
    [submitted > completed + in_flight]. *)

val reset_stats : unit -> unit
(** Zero the atomic tallies (tests and the bench's pool figure).  Does
    not touch the registry mirrors — use [Telemetry.Metrics.reset_all]
    for those. *)
