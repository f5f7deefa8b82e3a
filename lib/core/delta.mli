(** Write-optimized delta layer over a {!Hexastore}.

    §4.2 of the paper concedes that incremental insertion is the
    Hexastore's weak point: every triple touches sorted vectors in all
    six orderings.  Here a bare store's point write rebuilds its
    orderings ({!Hexastore.add_ids}), so this module is the one
    per-triple write path: it stages mutations LSM-style, in three
    tiers in front of the base store:

    - two small pending buffers, recent inserts and a delete set;
    - one immutable sorted level: inserts the base lacks and tombstones
      for triples it holds, each set kept as flat [int] arrays sorted in
      spo and in each ordering a read has served from (no per-triple
      records, no hash tables);
    - the base, which only a migration mutates.

    Every read is one push merge of the three: the base's own cursor,
    with the level's range (found by binary search in the serving
    ordering) and the pending matches merged in and the tombstones left
    out, in the order {!Hexastore.iter} serves the pattern's shape.
    When a buffer reaches its threshold, the auto-flush drains both
    buffers into a new level: the batch is sorted in spo
    ({!Ordering.sort_triples}), re-sorted for each other ordering the
    level keeps ({!Ordering.resort}), and merged with the old level's
    arrays.
    The base is not touched, so no reader is waited for.  The level
    moves into the base — tombstones and inserts in one
    {!Hexastore.apply_bulk_ids}, a single merge and flat rebuild — only
    when it would outgrow an eighth of the base, on {!flush} and on
    {!compact}.  On a small base that is every auto-flush.

    Each buffer is a triple-keyed membership table plus three term
    tables that file every staged triple under its subject, its
    predicate and its object.  A read with a bound position visits only
    the smallest bucket among its bound terms, never the whole buffer.
    A write touches only the membership table and logs the entry; the
    next read on this delta files the logged entries under their terms
    (and unfiles removed ones) before it looks.  That drain mutates the
    buffers, so it is the one writer's job (see {!pin}).

    Coherence invariants, validated by [Check.Invariant.delta]: the
    level's inserts are absent from the base and its tombstones present
    in it; each of the level's orderings holds the same set, sorted; no
    pending insert is visible in base ∪ level; every pending tombstone
    is; the two buffers are disjoint.

    Telemetry (all under [hexastore.delta.*]): buffered-mutation
    counters ([insert.buffered], [delete.buffered],
    [insert.resurrected], [delete.unbuffered]), flush counters
    ([flush.calls] — level merges and migrations alike, [flush.auto],
    [flush.rebuild] — a {!compact}'s rebuild, [compact.calls]),
    merged-read counter ([lookup.merged]), size gauges
    ([pending_inserts], [pending_deletes], [level_triples]) and flush
    profiles ([flush_duration_us], [flush_batch]). *)

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
(** The base store.  Reading it directly bypasses the pending mutations
    and the level; call {!flush} first for a complete view.  The base's identity is
    stable: a migration rebuilds it in place ({!Hexastore.apply_bulk_ids}),
    so external aliases — e.g. a {!Dataset} graph fronted by this delta —
    stay valid. *)

val dict : t -> Dict.Term_dict.t
val size : t -> int
(** Merged triple count: base + level inserts − level tombstones +
    pending inserts − pending deletes. *)

val pending_inserts : t -> int
val pending_deletes : t -> int

val level_size : t -> int
(** Triples in the level: its inserts plus its tombstones. *)

val level_run : t -> tombstones:bool -> Ordering.t -> int array
(** The level's inserts (or, with [~tombstones:true], its tombstones)
    sorted in the given ordering, as one flat array of (s, p, o)
    triplets: triple [i] is at [3i], [3i + 1] and [3i + 2].  An ordering
    other than spo no read has asked for yet is sorted now and kept.
    The array is the level's own, not a copy — for invariant checking
    and tests; never mutate it. *)

val insert_threshold : t -> int
val delete_threshold : t -> int

val set_thresholds : ?insert:int -> ?delete:int -> t -> unit
(** Adjust auto-flush thresholds (clamped to ≥ 1).  Takes effect on the
    next mutation; lowering below the current backlog does not flush by
    itself. *)

(** {1 Id-level API} *)

val add_ids : t -> id_triple -> bool
(** Buffered insert; [false] if already visible in the merged view.
    Re-adding a triple with a pending tombstone cancels the tombstone.
    May trigger an auto-flush. *)

val remove_ids : t -> id_triple -> bool
(** Buffered delete; [false] if absent from the merged view.  Removing a
    buffered insert just drops it from the buffer; removing a triple of
    the base or the level records a tombstone.  May trigger an
    auto-flush. *)

val mem_ids : t -> id_triple -> bool

val add_bulk_ids : t -> id_triple array -> int
(** Flushes pending mutations and the level, then bulk-loads through the base's
    sort-and-append path.  Returns the number of triples actually new. *)

val iter : t -> Pattern.t -> (int -> int -> int -> unit) -> unit
(** Merged view, pushed: [f s p o] for every triple of
    base ∪ inserts − tombstones matching the pattern, in the order
    {!Hexastore.iter} serves the pattern's shape — callers cannot tell a
    delta-fronted store from a flushed one.  One pass of the base's
    cursor with the level's range and the pending matches merged in.
    The matching buffer entries come from the smallest bucket among the
    pattern's bound terms (the whole buffer only for the all-wildcard
    pattern), and are copied and sorted at call time. *)

val count : t -> Pattern.t -> int
(** Exact number of triples {!iter} pushes: the base's O(log) count adjusted by
    the level's two range lengths (binary searches) and each buffer's
    matches.  With one bound position a buffer's share is one bucket's
    live count, O(1); with two it is a walk of the smaller of the two
    buckets; fully bound it is {!mem_ids}. *)

val fold : (id_triple -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the merged view in (s, p, o) order. *)

val seek_sorted :
  t -> Pattern.t -> Pattern.position ->
  (Ordering.t * (int -> int -> (int -> int -> int -> unit) -> unit)) option
(** Merged counterpart of {!Hexastore.seek_sorted}, so a delta-fronted
    store stays merge-joinable and splittable under the same rules as
    its base: [run lo hi f] is the base's run over [[lo, hi)]
    push-merged with the level's and the buffers' matches in that key
    range.  Their ranges for the pattern are found at the first run;
    each run narrows them by binary search.  Nothing is materialised
    beyond the buffers' matching entries. *)

val scan_bounds : t -> Pattern.t -> Pattern.position -> parts:int -> int array
(** Interior boundary keys carving the merged scan into [parts]
    contiguous ranges; taken from the base's serving structure (see
    {!Hexastore.scan_bounds}), so insert-heavy deltas may yield
    unbalanced — never incorrect — parts.  On a pinned view, one
    {!seek_sorted} cursor per range may run on its own domain. *)

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
    costs O(pending); the level is shared.  [unpin] is idempotent;
    holding a pin blocks migrations, so release promptly. *)

val pins : t -> int
(** Number of currently held pins (diagnostic; exact only while pinners
    are quiescent). *)

val iter_pending_inserts : (id_triple -> unit) -> t -> unit
(** Buffered inserts, in hash order.  Invariant checking and tests. *)

val iter_pending_deletes : (id_triple -> unit) -> t -> unit

(** {1 Draining} *)

val flush : t -> unit
(** Fold the buffers into the level, then migrate the level into the
    base: one linear merge of the base's (s, p, o) scan with the level's
    tombstones and inserts, then one flat rebuild of the base in its
    codec ({!Hexastore.apply_bulk_ids}).  Afterwards the base holds the
    whole merged view.  No-op when the buffers and the level are
    empty. *)

val compact : t -> unit
(** {!flush}, counted as a compaction ([flush.rebuild],
    [compact.calls]): since every migration rebuilds the base, the two
    take the same path. *)

(** {1 Term-level API} *)

val add : t -> Rdf.Triple.t -> bool
val remove : t -> Rdf.Triple.t -> bool
val mem : t -> Rdf.Triple.t -> bool

val find : t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Rdf.Triple.t Seq.t
(** Term-level pattern lookup over the merged view; a term unknown to
    the dictionary yields the empty sequence. *)

val to_triples : t -> Rdf.Triple.t list

val memory_words : t -> int
(** Base footprint plus the exact footprint of the level and the
    pending buffers.  The level costs three words per triple for its
    spo run and for each other ordering a read has filled, plus a
    header per array, 19 words of record and slots per set and 2 per
    filled slot.  A staged triple costs 21 words once filed (its triple
    record, its entry, its membership binding and one list cell in each
    of its three buckets; 15 while it waits to be filed); each distinct term
    in a buffer costs 8 (a table binding and its bucket record); each
    table adds its bucket array; a removed entry a bucket has not
    dropped yet costs its cells until it is. *)
