(** The Hexastore: sextuple indexing for RDF data (§4 of the paper).

    Every triple 〈s, p, o〉 is represented in all 3! = 6 orderings —
    [spo], [sop], [pso], [pos], [osp], [ops].  Each ordering maps a header
    resource to a sorted vector of second elements, each entry of which
    carries a sorted terminal list of third elements (Figure 2).  The
    three pairs of orderings that end in the same element physically share
    their terminal lists — [spo]/[pso] share o-lists, [sop]/[osp] share
    p-lists, [pos]/[ops] share s-lists — which is what bounds the space
    overhead at five times a raw triples table (§4.1).

    All vectors and lists are sorted, so every first-step pairwise join a
    query needs is a linear merge-join (§4.2).

    The six orderings are immutable CSRs ({!Index.of_sorted_columns})
    whose payload streams are [int array]s ([Raw]) or bit-packed
    ([Packed]) and whose pointer columns are always bit-packed; each
    twin reads its terminal lists from its owner's stream, and each
    sibling pair ([spo]/[sop], [pso]/[pos], [osp]/[ops]) reads one
    header level.
    Every write ({!apply_bulk_ids} and the functions built on it, a
    snapshot load, a {!Delta} migration) builds new orderings in one
    fill per list family; a point write is a one-triple bulk write, a
    rebuild of O(n).  Repeated point writes belong to {!Delta}.

    The store owns a {!Dict.Term_dict.t} mapping table; both an id-level
    API (used by the query engine and benchmarks) and a term-level API
    (used by applications) are provided. *)

type t

type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

val create : ?dict:Dict.Term_dict.t -> ?repr:Vectors.Sorted_ivec.kind -> unit -> t
(** A fresh empty store.  Pass [dict] to share a mapping table with
    another store (the benchmarks do this so Hexastore and the COVP
    baselines agree on ids).  [repr] selects the codec of the
    orderings' streams: [Raw] [int array]s (the default) or [Packed].  When
    absent, read from the [HEXASTORE_REPR] environment variable
    ([raw]/[packed]).
    @raise Invalid_argument on an unknown [HEXASTORE_REPR] value. *)

val dict : t -> Dict.Term_dict.t

(** {1 Representation} *)

val repr : t -> Vectors.Sorted_ivec.kind
(** The configured codec. *)

val repr_name : t -> string
(** [Vectors.Sorted_ivec.kind_name] of {!repr}: ["raw"] or ["packed"]. *)

val size : t -> int
(** Number of distinct triples. *)

(** {1 Id-level API} *)

val add_ids : t -> id_triple -> bool
(** Insert; [false] if already present.  A one-triple {!add_bulk_ids}:
    all six orderings are rebuilt, O(n) — §4.2's noted update cost, in
    full.  Stage repeated point writes in a {!Delta}. *)

val remove_ids : t -> id_triple -> bool
(** Delete; [false] if absent.  A one-triple {!remove_bulk_ids}: a
    rebuild of O(n), like {!add_ids}. *)

val mem_ids : t -> id_triple -> bool
(** O(log) membership via the shared o-list of (s, p), found through
    [spo]. *)

val of_sorted_columns :
  ?dict:Dict.Term_dict.t ->
  ?repr:Vectors.Sorted_ivec.kind ->
  s:int array ->
  p:int array ->
  o:int array ->
  unit ->
  t
(** A store over distinct triples given as three parallel columns
    sorted on (s, p, o) — a snapshot load's path: no triple records, no
    sort of the (s, p, o) family, no de-duplication.  The (s, o, p) and
    (p, o, s) families are two counting-sort passes each
    ({!Vectors.Radix}).  The [Raw] codec adopts [o] as the o-list
    stream: the caller must not touch it afterwards.
    @raise Invalid_argument if the columns differ in length, hold a
    negative id or are not strictly ascending. *)

val apply_bulk_ids : t -> add:id_triple array -> remove:id_triple array -> int * int
(** [apply_bulk_ids t ~add ~remove] makes [t] hold (t \ remove) ∪ add in
    one rebuild: both batches are sorted in linear time
    ({!Ordering.sort_distinct}), and each list family merges its
    owner's scan with them in one linear pass and one fill
    ({!Index.refill}).  From empty, [add] is taken apart into three id
    columns, which one permutation sorts on (s, p, o) by counting-sort
    passes on o, then p, then s; the repeats are dropped and
    {!of_sorted_columns}'s fill builds the store.  Returns
    how many triples were new and how many were removed (a triple in
    both batches and in [t] counts once in each).  Nothing is rebuilt
    when nothing changes.  A {!Delta} migration is one call.
    @raise Invalid_argument on a negative id. *)

val add_bulk_ids : t -> id_triple array -> int
(** [apply_bulk_ids] with nothing to remove: the number of triples
    actually new.  On an empty store this is the load from empty. *)

val remove_bulk_ids : t -> id_triple array -> int
(** [apply_bulk_ids] with nothing to add: the number of triples
    removed.  Absent triples and repeats are ignored. *)

val iter : t -> Pattern.t -> (int -> int -> int -> unit) -> unit
(** [iter t pat f] calls [f s p o] for every triple matching [pat],
    allocating nothing per triple.  Each of the 8 shapes is answered by
    the ordering that makes the access a header/vector/list traversal
    ({!Ordering.for_shape}), and the matches come in that ordering's
    order. *)

val count : t -> Pattern.t -> int
(** Exact number of triples {!iter} pushes, in O(log) time for any
    shape (vector totals are kept in the index). *)

val fold : (id_triple -> 'a -> 'a) -> t -> 'a -> 'a
(** Over all triples in (s, p, o) order ({!Index.iter_triples} of
    [spo]). *)

val seek_sorted :
  t -> Pattern.t -> Pattern.position ->
  (Ordering.t * (int -> int -> (int -> int -> int -> unit) -> unit)) option
(** [seek_sorted t pat pos] is the sorted range cursor behind the
    executor's merge joins and parallel scans: when [pos] is free in
    [pat], the ordering that lists [pat]'s bound positions first, then
    [pos], plus [run].  [run lo hi f] calls [f s p o] for every match
    whose value at [pos] lies in [[lo, hi)], ascending on that value
    (in the ordering's order).  Each run gallops from the previous
    run's start ({!Vectors.Sorted_ivec.search_from}), so ascending
    ranges cost the distance they cover; a lower [lo] restarts the
    search.  A merge-join probe for key [k] is [run k (k + 1)], and
    [run min_int max_int] is the whole scan.  On a Hexastore some
    ordering always serves a constants-only pattern, so this is [None]
    only when [pos] is itself bound.  Counts as one probe of the
    serving ordering. *)

val serving_ordering : Pattern.t -> Pattern.position -> Ordering.t option
(** The ordering {!seek_sorted} would serve from, found without a
    cursor or a probe: [None] exactly when [seek_sorted] is [None]. *)

val scan_bounds : t -> Pattern.t -> Pattern.position -> parts:int -> int array
(** [scan_bounds t pat pos ~parts] is the interior boundary keys that
    carve [seek_sorted t pat pos]'s whole scan into [parts] contiguous,
    roughly size-balanced key ranges: a non-decreasing array of at most
    [parts - 1] values at [pos].  Range [i] is
    [run bounds.(i-1) bounds.(i)], with [min_int] and [max_int] at the
    two ends.  Empty when the pattern has no serving ordering, no
    matches, or [parts <= 1]. *)

(** {1 Direct vector/list accessors (the paper's notation)} *)

val objects_of_sp : t -> s:int -> p:int -> Vectors.Sorted_ivec.t option
(** The shared list o{_s}(p) = o{_p}(s). *)

val properties_of_so : t -> s:int -> o:int -> Vectors.Sorted_ivec.t option
(** The shared list p{_s}(o) = p{_o}(s). *)

val subjects_of_po : t -> p:int -> o:int -> Vectors.Sorted_ivec.t option
(** The shared list s{_p}(o) = s{_o}(p). *)

val spo : t -> Index.t
val sop : t -> Index.t
val pso : t -> Index.t
val pos : t -> Index.t
val osp : t -> Index.t
val ops : t -> Index.t

val subjects : t -> Vectors.Sorted_ivec.t
(** Sorted ids of all subjects (headers of [spo]); fresh vector. *)

val properties : t -> Vectors.Sorted_ivec.t
val objects : t -> Vectors.Sorted_ivec.t

(** {1 Term-level API} *)

val add : t -> Rdf.Triple.t -> bool
val add_list : t -> Rdf.Triple.t list -> int
(** One {!add_bulk_ids} of the encoded triples: the number of new
    triples. *)

val of_triples : Rdf.Triple.t list -> t

val load_ntriples : ?repr:Vectors.Sorted_ivec.kind -> (bytes -> int -> int -> int) -> t
(** The store of the N-Triples text read through [read] (as
    [In_channel.input]), in a fresh dictionary, with no term and no
    triple record in between: {!Dict.Term_dict.encode_ntriples} hands
    each statement's ids to three growing columns, which fill the store
    as {!add_bulk_ids} fills an empty one.  Its ids, and so its
    snapshot, are those of [of_triples (Rdf.Ntriples.parse_string
    text)].  [repr] as in {!create}.
    @raise Rdf.Ntriples.Parse_error on malformed text. *)

val remove : t -> Rdf.Triple.t -> bool
val mem : t -> Rdf.Triple.t -> bool

val pattern_of_terms :
  Dict.Term_dict.t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Pattern.t option
(** The id pattern of a term-level lookup, an absent term a wildcard;
    [None] when a given term is unknown to the dictionary (nothing can
    match, and no id is allocated). *)

val find_via :
  Dict.Term_dict.t -> (Pattern.t -> (int -> int -> int -> unit) -> unit) ->
  ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Rdf.Triple.t Seq.t
(** [find_via dict iter] is the term-level lookup of any store whose
    push read is [iter]: the matches of {!pattern_of_terms}, decoded in
    [iter]'s order.  Shared by {!find} and [Delta.find]. *)

val find : t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Rdf.Triple.t Seq.t
(** [find_via] over {!iter}.  A term unknown to the dictionary yields
    the empty sequence. *)

val count_terms : t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> int

val to_triples : t -> Rdf.Triple.t list
(** All triples, decoded, in (s-id, p-id, o-id) order. *)

(** {1 Accounting and invariants} *)

val memory_words : t -> int
(** Exact structural footprint of the six indices, each shared terminal
    stream counted once, inside the owner ([spo], [sop] or [pos]) that
    holds it; the dictionary is excluded. *)

val memory_words_with_dict : t -> int

val check_invariant : t -> unit
(** Asserts: all vectors/lists sorted; the six indices describe the same
    triple set; totals consistent; terminal lists physically shared
    between twin orderings ({!Vectors.Sorted_ivec.shares}).  Test/debug
    helper — O(size). *)
