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

val get_or_create_list :
  (int, Vectors.Sorted_ivec.t) Hashtbl.t -> int -> Vectors.Sorted_ivec.t
(** The terminal list under a {!Vectors.Pair_key} in a store's list
    table, created empty when absent. *)

val lists_memory_words : (int, Vectors.Sorted_ivec.t) Hashtbl.t -> int
(** Exact words held by a store's list table: its bucket array, one
    4-word bucket per entry and every list. *)

val link : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** [link idx ~first ~second l] registers the shared terminal list [l]
    under (first, second) and counts one more triple under [first]'s
    vector — the point-insert path: a new header goes straight into the
    sorted header vector. *)

val link_bulk : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** {!link} for bulk passes: a new header below the current largest one
    is only recorded as pending, and the pass must end with {!seal}.
    Until then the sorted header reads ({!headers_view}, {!headers},
    {!iter_sorted}, {!compress}) and {!remove_header} raise
    [Invalid_argument]. *)

val seal : t -> unit
(** Merges the pending headers of a bulk pass into the sorted header
    vector: one sort of the [k] pending ids plus one in-place merge,
    O(h + k log k) per batch instead of O(h) per header. *)

val pending_headers : t -> int
(** Headers awaiting {!seal}; 0 outside a bulk pass. *)

val unlink : t -> first:int -> second:int -> list_empty:bool -> unit
(** Undo one triple's {!link}: count one triple fewer under [first]
    and, when the shared list has gone empty, drop the (first, second)
    entry and then the header if its vector emptied.
    @raise Invalid_argument when [first] is not a header. *)

val find_list : t -> int -> int -> Vectors.Sorted_ivec.t option
(** [find_list idx first second] is the terminal list under
    (first, second), if both levels exist. *)

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
    by the store. *)

val check_invariant : t -> unit
(** Sorted headers match the hashtable, no header is pending, and
    every vector is sound. *)
