(** Per-layer structural invariant validators.

    The invariant catalogue the paper relies on, machine-checked:

    - {b Sortedness} (§4.1): every vector, every header's keys and every
      terminal list is strictly increasing — {!sorted_ivec}, {!index}.
    - {b Accounting}: every header's stored triple total equals the sum
      of its terminal-run lengths, and every ordering's total equals the
      store size — {!index}, {!store}.
    - {b Pruning}: no empty terminal list, vector, or header survives a
      deletion — {!index}, {!store}.
    - {b Six-way agreement} (§4): the same triple set is reachable from
      every one of the six orderings — {!store}.
    - {b Terminal-list sharing} (§4.1, the 5× space bound): twin orderings
      reach the {e same} list — the same window of the owner's stream
      ({!Vectors.Sorted_ivec.shares}) — {!twins}, {!store}.
    - {b Dictionary bijectivity} (§4.1's mapping table): term ↔ id is a
      bijection — {!dictionary}, {!term_dict}.
    - {b Dataset coherence}: every graph shares the dataset dictionary
      physically and the dataset size is the sum over graphs — {!dataset}.
    - {b Snapshot fidelity} (§7): save/load round-trips the triple set,
      the dictionary, and every structural invariant — {!snapshot_roundtrip}.

    All validators return the complete list of violations found (empty =
    invariant holds) and never raise on malformed structures. *)

val sorted_ivec : ?path:string -> Vectors.Sorted_ivec.t -> Violation.t list
(** Strict ascending order. *)

val index : ?path:string -> Hexa.Index.t -> Violation.t list
(** The index's own audit ({!Hexa.Index.violations}): the columns
    (codecs, offsets, rank bitmap), then every header read by entry —
    headers and each header's keys strictly ascending, every terminal
    run non-empty and strictly ascending, and the header's total equal
    to the sum of its run lengths. *)

val twins : ?path:string -> owner:Hexa.Index.t -> twin:Hexa.Index.t -> unit -> Violation.t list
(** The sharing check of one twin pair: both hold as many entries, and
    each twin entry (first, second) reaches the owner's terminal list for
    (second, first) at the same offsets of the same stream. *)

val siblings : ?path:string -> Hexa.Index.t -> Hexa.Index.t -> Violation.t list
(** The sharing check of two sibling orderings (the same first
    position): they read one header level, physically. *)

val store : Hexa.Hexastore.t -> Violation.t list
(** The full Hexastore invariant: the six per-index checks, six-way
    triple-set agreement, {!twins} on the three twin pairs, {!siblings}
    on the three sibling pairs, the direct
    accessor tables handing out the owners' lists, per-index totals
    equal to the store size, and dictionary bijectivity. *)

val delta : Hexa.Delta.t -> Violation.t list
(** The delta-layer coherence rules on top of the base store's full
    {!store} check: the level's inserts absent from the base and its
    tombstones present; each of the level's orderings strictly sorted
    and holding the same set; no buffered insert already present in
    base ∪ level, the delete set a subset of it, the two buffers
    disjoint; and the
    merged view observationally equal — triples, per-shape order, and
    counts — to a clone loaded from empty with the merged triple set in
    one bulk write.  The
    pattern cross-check runs the full wildcard plus all bound shapes of
    a capped sample of merged triples. *)

val dictionary : Rdf.Dictionary.t -> Violation.t list
(** [decode] then [find] round-trips to the same id for every allocated
    id (string ↔ id bijection). *)

val term_dict : Dict.Term_dict.t -> Violation.t list
(** [decode_term] then [find_term] round-trips for every allocated id
    (term ↔ id bijection). *)

val dataset : Hexa.Dataset.t -> Violation.t list
(** Every graph (default and named) passes {!store}, shares the dataset
    dictionary physically, and the dataset size is the sum of graph
    sizes. *)

val snapshot_roundtrip : Hexa.Hexastore.t -> Violation.t list
(** Saves the store to a temporary file, loads it back, and checks the
    reloaded store for: identical size, identical triple set, identical
    dictionary contents (term-by-term, positional ids), and all {!store}
    invariants.  The temporary file is always removed.

    Stores whose triples use ids not allocated in their dictionary (a
    raw id-level store) are not snapshotable; a single violation saying
    so is returned without touching the filesystem. *)
