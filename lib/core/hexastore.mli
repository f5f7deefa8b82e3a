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
    baselines agree on ids).  [repr] selects the index representation:
    [Raw] (mutable, the default) or [Packed], which {!add_bulk_ids}
    re-establishes after every bulk load.  When absent, read from the
    [HEXASTORE_REPR] environment variable ([raw]/[packed]).
    @raise Invalid_argument on an unknown [HEXASTORE_REPR] value. *)

val dict : t -> Dict.Term_dict.t

(** {1 Representation} *)

val repr : t -> Vectors.Sorted_ivec.kind
(** The configured target representation. *)

val repr_name : t -> string
(** The {e effective} representation right now: ["packed"] while the
    store is flat-compressed, ["raw"] otherwise (e.g. after a point
    mutation inflated it). *)

val is_flat : t -> bool
(** Whether the six indices are currently flat compressed. *)

val compress : t -> unit
(** Re-encode the whole store into flat compressed indices of the
    configured kind (no-op when [repr] is [Raw] or already flat).
    Reads keep working unchanged through slices/views; point mutations
    transparently {!inflate} first.  Adds the recovered bytes to the
    [vectors.repr.bytes_saved] counter. *)

val inflate : t -> unit
(** Rebuild the mutable hashed representation from a flat store (no-op
    when already raw). *)

val size : t -> int
(** Number of distinct triples. *)

val replace_contents : t -> from:t -> unit
(** [replace_contents dst ~from:src] makes [dst] adopt [src]'s indices,
    terminal lists and size in place, preserving [dst]'s identity so any
    alias to it (a {!Dataset} graph slot, a {!Delta} base) observes the
    new contents.  Used by the delta layer's rebuild-style flush.
    @raise Invalid_argument if the two stores do not share a dictionary. *)

(** {1 Id-level API} *)

val add_ids : t -> id_triple -> bool
(** Insert; [false] if already present.  Touches all six indices — §4.2's
    noted update cost. *)

val remove_ids : t -> id_triple -> bool
(** Delete; [false] if absent.  Empty vectors and headers are pruned. *)

val mem_ids : t -> id_triple -> bool
(** O(log) membership via the shared o-list of (s, p). *)

val add_bulk_ids : t -> id_triple array -> int
(** Bulk load: sorts the batch once per list family so vectors and lists
    fill by monotone appends, and each index merges the headers that
    arrived out of order once, at the end ({!Index.seal}); near-linear
    on an empty store.  Returns the number of triples actually new. *)

val lookup : t -> Pattern.t -> id_triple Seq.t
(** All matching triples, lazily, in the natural order of the index
    serving the pattern's shape.  Each of the 8 shapes is answered by the
    ordering that makes the access a header/vector/list traversal. *)

val count : t -> Pattern.t -> int
(** Exact cardinality of [lookup], in O(log) time for any shape (vector
    totals are maintained incrementally). *)

val fold : (id_triple -> 'a -> 'a) -> t -> 'a -> 'a
(** Over all triples in (s, p, o) order. *)

val scan_sorted : t -> Pattern.t -> Pattern.position -> (Ordering.t * (int -> id_triple Seq.t)) option
(** [scan_sorted t pat pos] is the seekable sorted scan behind the
    executor's merge joins: when [pos] is free in [pat], returns the
    ordering serving it plus a seek function — [seek k] streams the
    matching triples whose value at [pos] is [>= k], ascending on that
    value.  Seeks gallop forward from the previous hit
    ({!Vectors.Sorted_ivec.search_from}), so an ascending probe sequence
    costs the distance it covers.  On a Hexastore some ordering always
    serves a constants-only pattern, so this returns [None] only when
    [pos] is itself bound.  Counts as one probe of the serving
    ordering. *)

val scan_bounds : t -> Pattern.t -> Pattern.position -> parts:int -> int array
(** [scan_bounds t pat pos ~parts] is the interior boundary keys that
    carve [scan_sorted t pat pos]'s stream into [parts] contiguous,
    roughly size-balanced key ranges: a non-decreasing array of at most
    [parts - 1] values at [pos].  Empty when the pattern has no serving
    ordering, no matches, or [parts <= 1]. *)

val split_cursor :
  Pattern.position -> int array -> (int -> id_triple Seq.t) -> id_triple Seq.t array
(** [split_cursor pos bounds seek] carves a {!scan_sorted} seek cursor
    at the given interior boundaries: range [i] holds the matches whose
    value at [pos] lies in [[bounds.(i-1), bounds.(i))] (unbounded at
    the array's ends).  All seeks run eagerly during the call; the
    returned sequences share no mutable cursor state, so distinct
    ranges can be forced from distinct domains.  Concatenating the
    ranges in order reproduces the unsplit [seek min_int] stream
    exactly.  Shared so {!Delta} can split its merged cursors the same
    way. *)

val scan_split :
  t -> Pattern.t -> Pattern.position -> parts:int ->
  (Ordering.t * id_triple Seq.t array) option
(** [scan_split t pat pos ~parts] is {!scan_sorted} partitioned into up
    to [parts] contiguous ranges via {!scan_bounds}/{!split_cursor}.
    [None] exactly when {!scan_sorted} is. *)

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
(** Returns the number of new triples. *)

val of_triples : Rdf.Triple.t list -> t
val remove : t -> Rdf.Triple.t -> bool
val mem : t -> Rdf.Triple.t -> bool

val find : t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Rdf.Triple.t Seq.t
(** Term-level pattern lookup.  A term unknown to the dictionary yields
    the empty sequence (and does not allocate an id). *)

val count_terms : t -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> int

val to_triples : t -> Rdf.Triple.t list
(** All triples, decoded, in (s-id, p-id, o-id) order. *)

(** {1 Accounting and invariants} *)

val memory_words : t -> int
(** Structural footprint of the six indices plus the shared terminal
    lists (counted once), excluding the dictionary. *)

val memory_words_with_dict : t -> int

val check_invariant : t -> unit
(** Asserts: all vectors/lists sorted; the six indices describe the same
    triple set; totals consistent; terminal lists physically shared
    ([==]) between twin orderings.  Test/debug helper — O(size). *)
