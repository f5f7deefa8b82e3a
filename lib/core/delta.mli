(** Write-optimized delta layer over a {!Hexastore}.

    §4.2 of the paper concedes that incremental insertion is the
    Hexastore's weak point: every triple does a binary insertion into
    sorted vectors in all six orderings, O(vector length) apiece.  This
    module stages mutations LSM-style instead: recent inserts and a
    delete set live in two small buffers in front of an immutable-ish
    base store, and every read merges
    [base ∪ inserts − deletes] lazily through the sorted-merge kernels
    in {!Vectors.Merge}, preserving each access pattern's natural index
    order.  When a buffer reaches its threshold the delta is drained
    into the six orderings through the base's sort-and-append bulk path
    ({!Hexastore.add_bulk_ids}) — amortized, not per-triple.

    Each buffer is a triple-keyed membership table plus three term
    tables that file every staged triple under its subject, its
    predicate and its object.  A read with a bound position visits only
    the smallest bucket among its bound terms, never the whole buffer.
    A write touches only the membership table and logs the entry; the
    next read on this delta files the logged entries under their terms
    (and unfiles removed ones) before it looks.  That drain mutates the
    buffers, so it is the one writer's job (see {!pin}).

    Coherence invariants, validated by [Check.Invariant.delta]:
    no buffered insert is present in the base; the delete set is a
    subset of the base; the two buffers are disjoint.

    Telemetry (all under [hexastore.delta.*]): buffered-mutation
    counters ([insert.buffered], [delete.buffered],
    [insert.resurrected], [delete.unbuffered]), flush counters
    ([flush.calls], [flush.auto], [flush.rebuild], [compact.calls]),
    merged-read counter ([lookup.merged]), pending-size gauges
    ([pending_inserts], [pending_deletes]) and flush profiles
    ([flush_duration_us], [flush_batch]). *)

type t

type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

val default_insert_threshold : int
(** 4096 buffered inserts. *)

val default_delete_threshold : int
(** 1024 buffered deletes (tombstones also tax every read, so they drain
    sooner). *)

val create : ?dict:Dict.Term_dict.t -> ?insert_threshold:int -> ?delete_threshold:int -> unit -> t
(** A delta layer over a fresh empty base store.  Thresholds are clamped
    to at least 1. *)

val of_base : ?insert_threshold:int -> ?delete_threshold:int -> Hexastore.t -> t
(** Front an existing store with an empty delta. *)

val base : t -> Hexastore.t
(** The base store.  Reading it directly bypasses pending mutations;
    call {!flush} first for a complete view.  The base's identity is
    stable: rebuild-style flushes adopt the rebuilt contents in place
    (via {!Hexastore.replace_contents}), so external aliases — e.g. a
    {!Dataset} graph fronted by this delta — stay valid. *)

val dict : t -> Dict.Term_dict.t
val size : t -> int
(** Merged triple count: base + pending inserts − pending deletes. *)

val pending_inserts : t -> int
val pending_deletes : t -> int
val insert_threshold : t -> int
val delete_threshold : t -> int

val set_thresholds : ?insert:int -> ?delete:int -> t -> unit
(** Adjust auto-flush thresholds (clamped to ≥ 1).  Takes effect on the
    next mutation; lowering below the current backlog does not flush by
    itself. *)

(** {1 Id-level API} *)

val add_ids : t -> id_triple -> bool
(** Buffered insert; [false] if already visible in the merged view.
    Re-adding a tombstoned base triple cancels the tombstone.  May
    trigger an auto-flush. *)

val remove_ids : t -> id_triple -> bool
(** Buffered delete; [false] if absent from the merged view.  Removing a
    buffered insert just drops it from the buffer; removing a base
    triple records a tombstone.  May trigger an auto-flush. *)

val mem_ids : t -> id_triple -> bool

val add_bulk_ids : t -> id_triple array -> int
(** Flushes pending mutations, then bulk-loads through the base's
    sort-and-append path.  Returns the number of triples actually new. *)

val lookup : t -> Pattern.t -> id_triple Seq.t
(** Merged view: base ∪ buffered inserts − tombstones, lazily, in the
    same order {!Hexastore.lookup} serves the pattern's shape — callers
    cannot tell a delta-fronted store from a flushed one.  The matching
    buffer entries come from the smallest bucket among the pattern's
    bound terms (the whole buffer only for the all-wildcard pattern),
    and are copied and sorted at call time. *)

val count : t -> Pattern.t -> int
(** Exact cardinality of {!lookup}: the base's O(log) count adjusted by
    each buffer's matches.  With one bound position that is one
    bucket's live count, O(1); with two it is a walk of the smaller of
    the two buckets; fully bound it is {!mem_ids}. *)

val fold : (id_triple -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the merged view in (s, p, o) order. *)

val scan_sorted : t -> Pattern.t -> Pattern.position -> (Ordering.t * (int -> id_triple Seq.t)) option
(** Merged counterpart of {!Hexastore.scan_sorted}: the base's seekable
    sorted scan with snapshot-sorted buffered inserts merged in and
    tombstones filtered out, still ascending on the scan position — so a
    delta-fronted store stays merge-joinable under the same strategy
    rules as its base. *)

val scan_bounds : t -> Pattern.t -> Pattern.position -> parts:int -> int array
(** Interior boundary keys carving the merged scan into [parts]
    contiguous ranges; taken from the base's serving structure (see
    {!Hexastore.scan_bounds}), so insert-heavy deltas may yield
    unbalanced — never incorrect — parts. *)

val scan_split :
  t -> Pattern.t -> Pattern.position -> parts:int ->
  (Ordering.t * id_triple Seq.t array) option
(** {!scan_sorted} partitioned into up to [parts] contiguous ranges.
    Every seek runs eagerly during the call, so on a pinned snapshot the
    returned ranges are safe to force from distinct domains.  [None]
    exactly when {!scan_sorted} is. *)

(** {1 Snapshot pinning}

    The delta's concurrency protocol: one writer stages and flushes
    while any number of reader domains query pinned snapshots.  A
    snapshot shares the (frozen) base store and owns private copies of
    the staged buffers, so its merged view is stable for as long as it
    is held: {!flush}, {!compact} and the auto-flush wait until every
    pin is released before mutating the base, and new pins wait out an
    in-progress flush.  Readers must not mutate through a snapshot.

    Reads on the live delta file pending entries under their terms,
    which mutates its buffers: only the writer's domain may read the
    live delta.  Other domains read a pinned view, whose buffer copies
    are filed when it is made, so its reads write nothing and one view
    may serve several domains (the [Query.Par] lanes) at once. *)

val pin : t -> t * (unit -> unit)
(** [pin t] is [(view, unpin)]: a read-only snapshot of the current
    merged view plus the closure releasing it.  Copying the buffers
    costs O(pending).  [unpin] is idempotent; holding a pin blocks
    flushes, so release promptly. *)

val pins : t -> int
(** Number of currently held pins (diagnostic; exact only while pinners
    are quiescent). *)

val iter_pending_inserts : (id_triple -> unit) -> t -> unit
(** Buffered inserts, in hash order.  Invariant checking and tests. *)

val iter_pending_deletes : (id_triple -> unit) -> t -> unit

(** {1 Draining} *)

val flush : t -> unit
(** Apply tombstones to the base, then drain buffered inserts through
    the per-ordering sort-and-append bulk path.  A batch large relative
    to the base (≥ 1/8) rebuilds the whole store through the
    pure-append path instead of doing in-place insertions.  No-op when
    both buffers are empty. *)

val compact : t -> unit
(** {!flush} with the rebuild path forced: drains buffers and re-loads
    the base into right-sized fresh vectors. *)

(** {1 Term-level API} *)

val add : t -> Rdf.Triple.t -> bool
val remove : t -> Rdf.Triple.t -> bool
val mem : t -> Rdf.Triple.t -> bool

val find : t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Rdf.Triple.t Seq.t
(** Term-level pattern lookup over the merged view; a term unknown to
    the dictionary yields the empty sequence. *)

val to_triples : t -> Rdf.Triple.t list

val memory_words : t -> int
(** Base footprint plus the exact footprint of the pending buffers.  A
    staged triple costs 21 words once filed (its triple record, its
    entry, its membership binding and one list cell in each of its
    three buckets; 15 while it waits to be filed); each distinct term
    in a buffer costs 8 (a table binding and its bucket record); each
    table adds its bucket array; a removed entry a bucket has not
    dropped yet costs its cells until it is. *)
