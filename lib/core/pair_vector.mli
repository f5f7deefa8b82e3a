(** A sorted vector of second-level keys, each carrying a terminal list.

    This is the middle layer of every Hexastore index (Figure 2 of the
    paper): under a header resource, a sorted vector of second-element
    keys, where each entry points at the sorted list of third elements.
    The payload lists are *shared* with the twin index that ends in the
    same element (§4.1), so they are stored by reference and this module
    never copies them.

    Keys are kept strictly increasing in one {!Vectors.Sorted_ivec.t}
    (mutable in the hashed form, a slice in a {!view}), so every
    key search is that module's; insertion is one binary search with an
    O(1) amortised fast path for ascending (bulk-load) arrivals. *)

type t

val create : ?capacity:int -> unit -> t

val of_sorted : keys:Vectors.Sorted_ivec.t -> payloads:Vectors.Sorted_ivec.t array -> t
(** A mutable vector over a complete sorted key vector and its parallel
    payloads, both adopted as they are (exact size, no copy); the total
    is the sum of the payload lengths.  The hashed form's constructor
    when a flat index thaws ({!Index.thaw}).
    @raise Invalid_argument if [keys] is not raw, or the two differ in
    length or are empty. *)

val view :
  keys:Vectors.Sorted_ivec.t ->
  total:int ->
  payload:(int -> Vectors.Sorted_ivec.t) ->
  t
(** An immutable pair vector over precomputed parts — the flat
    index's lookup result.  [keys] is the sorted key vector (a slice of
    the key stream), [total] the triple count under it, and [payload j]
    materialises the [j]-th terminal-list slice.
    Mutating operations ({!get_or_insert}, {!remove}, {!merge_sorted},
    {!bump_total}) raise [Invalid_argument] on views. *)

val length : t -> int
(** Number of (key, list) entries. *)

val total : t -> int
(** Total number of triples under this vector: the maintained sum of the
    payload list lengths.  Kept up to date by {!bump_total}, giving O(1)
    cardinality answers for single-bound patterns. *)

val bump_total : t -> int -> unit
(** [bump_total v d] adds [d] (possibly negative) to {!total}.  Called by
    the store when a shared payload list changes size. *)

val find : t -> int -> Vectors.Sorted_ivec.t option
(** Payload of a key, by binary search. *)

val get_or_insert : t -> int -> (unit -> Vectors.Sorted_ivec.t) -> Vectors.Sorted_ivec.t
(** [get_or_insert v key mk] returns the payload of [key], inserting
    [mk ()] first when the key is new. *)

val remove : t -> int -> bool
(** Delete a key and its payload reference; [false] when absent. *)

val merge_sorted : t -> int array -> Vectors.Sorted_ivec.t array -> unit
(** [merge_sorted v keys payloads] inserts the strictly increasing new
    [keys], each with the payload at the same position, in one pass
    that moves every existing entry at most once — the batch form of
    {!get_or_insert} for keys that arrive below existing ones.
    @raise Invalid_argument if the arrays differ in length, [keys] is
    not strictly increasing or one of them is already present (then [v]
    is left unspecified). *)

val key_at : t -> int -> int
val payload_at : t -> int -> Vectors.Sorted_ivec.t

val keys : t -> Vectors.Sorted_ivec.t
(** A fresh sorted vector of the keys (copies; O(n)). *)

val key_vector : t -> Vectors.Sorted_ivec.t
(** The vector's own sorted keys — zero-copy, shared: callers must not
    mutate it.  Merge joins seek into this directly. *)

val iter : (int -> Vectors.Sorted_ivec.t -> unit) -> t -> unit
(** In ascending key order. *)

val to_seq : t -> (int * Vectors.Sorted_ivec.t) Seq.t

val index_geq : t -> int -> int

val search_from : t -> from:int -> int -> int
(** [search_from v ~from k] is {!Vectors.Sorted_ivec.search_from} over
    the keys: the index of the smallest key [>= k] at position
    [>= from], a galloping lower bound in O(log gap).  The
    resumable-cursor primitive behind the store's sorted merge scans. *)

val memory_words : t -> int
(** Words for keys and payload *references* (payload contents are counted
    once, via the store's shared list tables). *)

val check_invariant : t -> unit
