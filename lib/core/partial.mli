(** A partial Hexastore: only a chosen subset of the six orderings.

    §6 observes that "some indices may not contribute to query efficiency
    based on a given workload.  For example, the ops index has been seldom
    used in our experiments.  A subject for future research concerns the
    selection of the most suitable indices for a given RDF data set based
    on the query workload at hand."  This module is that store: it
    materialises any non-empty subset of {spo, sop, pso, pos, osp, ops}
    (terminal lists still shared within a twin pair when both are kept,
    and one header level between kept orderings with the same first
    position, as COVP2's [pso] and [pos])
    and answers {e every} pattern shape regardless — natively when the
    shape's ordering is present, otherwise through the cheapest present
    ordering (filtered traversal, falling back to a full scan only when
    no bound position leads or follows the lead of a materialised
    ordering).

    The paper's §5 baselines are two such subsets: COVP1 keeps [pso]
    alone (one subject-sorted two-column table per property), COVP2
    [pso] and [pos].  Like the vertically partitioned architecture, they
    answer a property-unbound pattern by consulting every property
    table — the cost the benchmark figures show.

    {!Advisor} picks the subset from a workload. *)

type t

val create : ?dict:Dict.Term_dict.t -> orderings:Ordering.t list -> unit -> t
(** @raise Invalid_argument when [orderings] is empty. *)

val orderings : t -> Ordering.Set.t

val indices : t -> (Ordering.t * Index.t) list
(** The materialised orderings' indices, in {!Ordering.compare} order.
    For audits and tests; callers must not mutate them. *)

val index : t -> Ordering.t -> Index.t option
(** A kept ordering's index ([None] when it is not kept): how the §5.2
    COVP plans read [pso] and [pos].  Callers must not mutate it. *)

val dict : t -> Dict.Term_dict.t

val size : t -> int

val add_ids : t -> Dict.Term_dict.id_triple -> bool

val add_bulk_ids : t -> Dict.Term_dict.id_triple array -> int
(** Adds the triples the store lacks, each family in one merge and one
    fill; returns how many were new. *)

val remove_ids : t -> Dict.Term_dict.id_triple -> bool
(** [false] when absent.  Like {!add_ids}, a one-triple rebuild: O(n). *)

val mem_ids : t -> Dict.Term_dict.id_triple -> bool
(** O(log) through any present terminal-list family. *)

val iter : t -> Pattern.t -> (int -> int -> int -> unit) -> unit
(** [f s p o] per match, allocating nothing per triple.  Always
    correct; cost depends on whether the shape's ordering (or a useful
    substitute) is materialised. *)

val count : t -> Pattern.t -> int

val serving_ordering : t -> Pattern.t -> Ordering.t
(** The kept ordering {!iter} and {!count} read a pattern from: the
    longest bound prefix; on a tie, one whose second position is bound;
    then the shape's native ordering; then the first in
    {!Ordering.compare} order. *)

val is_native : t -> Pattern.shape -> bool
(** Whether the shape is served by its preferred ordering. *)

val memory_words : t -> int

val check_invariant : t -> unit
(** Present orderings are mutually consistent and sorted, and kept
    siblings read one header level. *)
