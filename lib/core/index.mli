(** One of the six Hexastore orderings.

    An index maps a header resource (the first element of the ordering) to
    a {!Pair_vector.t} of second elements whose payloads are the shared
    terminal lists of third elements.  The module is ordering-agnostic:
    [Hexastore] instantiates six of these and decides which roles the
    three levels play. *)

type t

val create : ?initial_headers:int -> unit -> t
(** A fresh mutable (hashed) index. *)

val compress : t -> t
(** Rebuild as a flat compressed index: headers, second-level keys and
    terminal ids become three shared bit-packed streams addressed by
    two bit-packed row-pointer streams, and every lookup answers with
    zero-copy slices/views.  Flat indices are immutable — the mutating
    operations below raise [Invalid_argument]; the store swaps whole
    representations instead ([Hexastore.compress]/[inflate]). *)

val is_flat : t -> bool

val block_violations : t -> string list
(** Codec-level audits of every backing stream (empty on hashed
    indices or when sound). *)

val header_count : t -> int

val find_vector : t -> int -> Pair_vector.t option
(** Pair vector under a header. *)

val get_or_create_vector : t -> int -> Pair_vector.t
(** The vector under a header, created (and inserted into the sorted
    header vector) when the header is new. *)

val of_sorted_columns : firsts:int array -> seconds:int array -> thirds:int array -> t * t
(** The build from empty: [of_sorted_columns ~firsts ~seconds ~thirds]
    takes distinct triples as three parallel columns sorted on (first,
    second, third) and builds the ordering they describe together with
    its twin, keyed (second, first), in one fill.  Each run of one
    (first, second) becomes one exact-size terminal list that adopts
    its slice of [thirds]; each header gets one exact-size pair vector;
    the header table is sized for the headers and the sorted header
    vector is built whole, so nothing is left pending.  The twin's
    entries come from a stable counting sort ({!Vectors.Radix}) of the
    same entries on second, and reach the same list objects.
    @raise Invalid_argument if the columns differ in length or are not
    sorted and distinct. *)

val link : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** [link idx ~first ~second l] registers the shared terminal list [l]
    under (first, second) and counts one more triple under [first]'s
    vector — the point-insert path: a new header goes straight into the
    sorted header vector. *)

val link_bulk : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** {!link} for bulk passes.  A new header below the current largest
    one is only recorded as pending, and so is a new second-level key
    below its vector's largest key; keys above it are appended at once.
    Stores loaded from empty do not link at all ({!of_sorted_columns});
    this is the path of bulk loads into a populated store.  The pass must end
    with {!seal}.  Until then the sorted header reads ({!headers_view},
    {!headers}, {!iter_sorted}, {!compress}) and {!remove_header} raise
    [Invalid_argument], and the pending keys are missing from their
    vectors.  @raise Invalid_argument while removals await {!seal}. *)

val unlink_bulk : t -> first:int -> second:int -> removed:int -> list_empty:bool -> unit
(** {!unlink} for bulk removal passes: counts [removed] triples fewer
    under [first] and, when the shared list has gone empty, records the
    (first, second) entry for {!seal} to drop, together with the header
    if its vector empties.  Until then the same reads raise as during a
    {!link_bulk} pass.
    @raise Invalid_argument when [first] is not a header, or while
    links await {!seal}. *)

val seal : t -> unit
(** Ends a bulk pass with one pass per touched vector: each vector
    loses its recorded entries in one compaction ({!Pair_vector.remove_sorted}),
    the header vector loses the emptied vectors' headers in another,
    each vector merges its recorded keys in one
    {!Pair_vector.merge_sorted}, and the header vector merges the
    pending headers in one {!Vectors.Sorted_ivec.merge_sorted} — O(h +
    k log k) per batch instead of O(h) per header.  No-op outside a
    bulk pass. *)

val pending_headers : t -> int
(** Headers awaiting {!seal}; 0 outside a bulk pass. *)

val pending_links : t -> int
(** Second-level keys awaiting {!seal}'s merge; 0 outside a bulk pass. *)

val pending_drops : t -> int
(** Emptied (first, second) entries awaiting {!seal}'s compaction; 0
    outside a bulk pass. *)

val unlink : t -> first:int -> second:int -> list_empty:bool -> unit
(** Undo one triple's {!link}: count one triple fewer under [first]
    and, when the shared list has gone empty, drop the (first, second)
    entry and then the header if its vector emptied.
    @raise Invalid_argument when [first] is not a header. *)

val find_list : t -> int -> int -> Vectors.Sorted_ivec.t option
(** [find_list idx first second] is the terminal list under
    (first, second), if both levels exist.  The one way a store reaches
    a terminal list: it asks the ordering that owns it (a Hexastore's
    [spo], [sop] or [pos], a COVP's [pso] or [pos]). *)

val add_third : t -> ?twin:t -> first:int -> second:int -> int -> bool
(** [add_third idx ?twin ~first ~second x] is the point insert of one
    triple into a list family: [x] joins the terminal list under
    (first, second) — a new list when there is none — which is
    {!link}ed there and, keyed (second, first), in [twin].  [false]
    (and nothing linked) when the list already held [x]. *)

val remove_third : t -> ?twin:t -> first:int -> second:int -> int -> bool
(** The point removal mirror of {!add_third}: [x] leaves the list under
    (first, second), which is {!unlink}ed from the index and [twin] (the
    entries dropped if it emptied).  [false] when the list lacks [x]. *)

val link_runs :
  t ->
  ?twin:t ->
  first:('a -> int) ->
  second:('a -> int) ->
  third:('a -> int) ->
  'a array ->
  fresh:('a -> unit) ->
  unit
(** One bulk pass of a list family by linking: a Hexastore's path into
    a populated store, and every COVP and [Partial] bulk load.  [a] is
    sorted on (first, second, third); each run of one (first, second)
    goes into the terminal list under it (a new one when absent) — appended
    when the run lands above the list's elements, merged in one pass
    otherwise — and each element the list did not hold is linked
    ({!link_bulk}) under (first, second) in the index and under
    (second, first) in [twin], then passed to [fresh].  Repeated
    elements count once.  The pass must end with {!seal} on both. *)

val unlink_runs :
  t ->
  ?twin:t ->
  first:('a -> int) ->
  second:('a -> int) ->
  third:('a -> int) ->
  'a array ->
  gone:('a -> unit) ->
  unit
(** The removal mirror of {!link_runs}: each run of one (first, second)
    leaves the terminal list under it in one compaction
    ({!Vectors.Sorted_ivec.remove_sorted}), and the entry is unlinked
    ({!unlink_bulk}) from the index and, keyed (second, first), from
    [twin].  Each element the list held is passed to [gone], once;
    absent elements and repeats are ignored.  The pass must end with
    {!seal} on both. *)

val remove_header : t -> int -> bool

val iter : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in unspecified order (hash order). *)

val iter_sorted : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in ascending id order (streams the maintained sorted
    header vector; O(h)). *)

val headers : t -> Vectors.Sorted_ivec.t
(** Fresh sorted vector of header ids (a copy; safe to mutate). *)

val headers_view : t -> Vectors.Sorted_ivec.t
(** The index's own maintained sorted header vector — zero-copy, shared:
    callers must not mutate it.  Merge-scans seek into this directly. *)

val total : t -> int
(** Number of triples reachable through this index (sum of vector
    totals); equals the store size when the index is consistent. *)

val memory_words : t -> int
(** Headers and vectors only — terminal list contents are accounted once
    by the store, through {!terminal_memory_words} of one ordering per
    list family. *)

val terminal_memory_words : t -> int
(** Exact words of the terminal lists the index reaches, each counted
    once.  0 on flat indices, whose terminal stream {!memory_words}
    already counts. *)

val check_invariant : t -> unit
(** Sorted headers match the hashtable, no header, link or drop is
    pending, and every vector is sound. *)
