(** A sorted vector of second-level keys, each carrying a terminal list.

    This is the middle layer of every Hexastore index (Figure 2 of the
    paper): under a header resource, a sorted vector of second-element
    keys, where each entry points at the sorted list of third elements.
    The payload lists are {e shared} with the twin index that ends in
    the same element (§4.1): a pair vector is a read-only view of an
    index's streams ({!Index.find_vector}) and never copies a list.

    Keys are one strictly increasing {!Vectors.Sorted_ivec.t} (a slice
    of the index's key stream), so every key search is that module's. *)

type t

val view :
  keys:Vectors.Sorted_ivec.t ->
  total:int ->
  payload:(int -> Vectors.Sorted_ivec.t) ->
  t
(** A pair vector over precomputed parts — an index's lookup result.
    [keys] is the sorted key vector (a slice of the key stream), [total]
    the triple count under it, and [payload j] materialises the [j]-th
    terminal-list slice. *)

val length : t -> int
(** Number of (key, list) entries. *)

val total : t -> int
(** Total number of triples under this vector (the sum of the payload
    list lengths), in O(1): cardinality answers for single-bound
    patterns. *)

val find : t -> int -> Vectors.Sorted_ivec.t option
(** Payload of a key, by binary search. *)

val key_at : t -> int -> int
val payload_at : t -> int -> Vectors.Sorted_ivec.t

val keys : t -> Vectors.Sorted_ivec.t
(** A fresh sorted vector of the keys (copies; O(n)). *)

val key_vector : t -> Vectors.Sorted_ivec.t
(** The vector's own sorted keys — zero-copy.  Merge joins seek into
    this directly. *)

val iter : (int -> Vectors.Sorted_ivec.t -> unit) -> t -> unit
(** In ascending key order. *)

val index_geq : t -> int -> int

val search_from : t -> from:int -> int -> int
(** [search_from v ~from k] is {!Vectors.Sorted_ivec.search_from} over
    the keys: the index of the smallest key [>= k] at position
    [>= from], a galloping lower bound in O(log gap).  The
    resumable-cursor primitive behind the store's sorted merge scans. *)

val check_invariant : t -> unit
