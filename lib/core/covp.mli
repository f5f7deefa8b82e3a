(** The COVP baselines: the paper's representation of Abadi et al.'s
    column-oriented vertical partitioning (§5).

    [COVP1] is the single-index property-oriented store — the [pso]
    indexing alone, i.e. one two-column table per property, sorted by
    subject, with same-subject objects grouped.  [COVP2] adds the second,
    object-sorted copy of each property table — the [pos] indexing.

    Crucially, these stores answer non-property-bound accesses the way the
    vertically partitioned architecture must: by consulting *every*
    property table and combining the results (§2.2.3, §5.2).  That cost is
    the phenomenon the benchmark figures exist to show, so the lookup
    implementations below spell those scans out rather than delegating to
    a Hexastore. *)

type kind =
  | Covp1  (** pso only *)
  | Covp2  (** pso + pos *)

type t

val create : ?dict:Dict.Term_dict.t -> kind -> t

val kind : t -> kind

val dict : t -> Dict.Term_dict.t

val size : t -> int

val add_ids : t -> Hexastore.id_triple -> bool
val remove_ids : t -> Hexastore.id_triple -> bool
val mem_ids : t -> Hexastore.id_triple -> bool

val add_bulk_ids : t -> Hexastore.id_triple array -> int

val add : t -> Rdf.Triple.t -> bool
val of_triples : kind -> Rdf.Triple.t list -> t

val iter : t -> Pattern.t -> (int -> int -> int -> unit) -> unit
(** Pattern access with the architecture's native strategies, pushed:
    [f s p o] per match, allocating nothing per triple.  Property-bound
    shapes are index lookups; property-unbound shapes scan the (possibly
    restricted, see {!restrict_properties}) property tables.  Results
    within one property table come sorted; across tables they follow
    property order. *)

val count : t -> Pattern.t -> int
(** Exact but computed with the same access paths as {!iter} — i.e. the
    property-unbound shapes pay the scan. *)

val indices : t -> (Ordering.t * Index.t) list
(** The store's own indices: [pso], plus [pos] under {!Covp2}.  For
    audits and tests; callers must not mutate them. *)

val properties : t -> Vectors.Sorted_ivec.t
(** Ids of all properties that have a table. *)

val subject_vector : t -> int -> Pair_vector.t option
(** The property's subject-sorted table ([pso]). *)

val object_vector : t -> int -> Pair_vector.t option
(** The property's object-sorted table ([pos]); [None] under {!Covp1}. *)

val objects_of_sp : t -> s:int -> p:int -> Vectors.Sorted_ivec.t option
val subjects_of_po : t -> p:int -> o:int -> Vectors.Sorted_ivec.t option
(** Under {!Covp1} this must scan the property's subject table —
    the expensive path the paper describes. *)

val restrict_properties : t -> int list option -> unit
(** Install (or clear) the pre-selected property set used by
    property-unbound scans — the "28 properties" assumption of [5] that
    §5 evaluates with and without.  Bound-property lookups are
    unaffected. *)

val scan_properties : t -> Vectors.Sorted_ivec.t
(** The property set unbound-property scans traverse: all properties, or
    the restriction installed by {!restrict_properties}. *)

val memory_words : t -> int

val check_invariant : t -> unit
