(** Sorted vectors of distinct integers.

    The backbone of every Hexastore vector and terminal list (§4.1 of the
    paper: "The keys of resources in all vectors and lists used in a
    Hexastore are sorted").  Elements are kept strictly increasing, so a
    [Sorted_ivec.t] is simultaneously an ordered set and a merge-join
    operand.

    Mutation is by binary insertion — O(n) worst case — with an O(1)
    amortised fast path when keys arrive in ascending order.  Stores
    never mutate their lists; the query layer builds its results this
    way.

    A sorted vector is either that mutable form or an immutable {e
    slice} of a shared {!stream}: a window of a plain [int array] (the
    [Raw] codec) or of a {!Packed_ivec} frame-of-reference bit-packed
    payload (the [Packed] codec, O(1) random access).  Every read —
    including the galloping {!search_from} the merge kernels lean on —
    works on all three forms without materialising arrays; mutations
    ({!add}, {!remove}, {!clear}, …) raise [Invalid_argument] on
    slices. *)

type t

(** Physical representation of a vector or stream. *)
type kind = Raw | Packed

val kind_name : kind -> string
(** ["raw"], ["packed"]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name} (case-insensitive).  This parses the
    [HEXASTORE_REPR] environment variable. *)

val kind_of : t -> kind

val is_compressed : t -> bool
(** [kind_of v <> Raw]: a slice of a packed stream.  Raw slices and
    the mutable form are [Raw]. *)

val create : ?capacity:int -> unit -> t

val singleton : int -> t

val of_sorted_array : int array -> t
(** [of_sorted_array a] adopts a copy of [a].
    @raise Invalid_argument if [a] is not strictly increasing. *)

val adopt_sorted : int array -> t
(** [adopt_sorted a] is {!of_sorted_array} without the copy: the vector
    takes [a] over as its exact-size backing array, so the caller must
    not touch [a] afterwards.  The bulk build's constructor for
    terminal lists and key vectors.
    @raise Invalid_argument if [a] is not strictly increasing. *)

val of_list : int list -> t
(** Builds from an arbitrary list (sorts and de-duplicates). *)

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int
(** [get v i] is the [i]-th smallest element. *)

val min_elt : t -> int
(** @raise Not_found on empty. *)

val max_elt : t -> int
(** @raise Not_found on empty. *)

val mem : t -> int -> bool
(** Binary search; O(log n). *)

val rank : t -> int -> int
(** [rank v x] is the number of elements strictly smaller than [x];
    equivalently the index at which [x] is or would be inserted. *)

val find_geq : t -> int -> int option
(** [find_geq v x] is the smallest element [>= x], if any.  This is the
    "seek" operation merge-joins use to leapfrog. *)

val index_geq : t -> int -> int
(** [index_geq v x] is the index of the smallest element [>= x], or
    [length v] when every element is smaller. *)

val search_from : t -> from:int -> int -> int
(** [search_from v ~from x] is the index of the smallest element [>= x]
    at position [>= from], or [length v] when there is none — an
    exponential (galloping) search that costs O(log(gap)) where [gap] is
    the distance advanced from [from].  Repeated ascending probes that
    resume from the previous hit therefore pay for the distance they
    cover, not for [log n] each: the resumable cursor behind the
    executor's merge joins, and the only galloping seek in the library
    ({!Hexa.Pair_vector} and the star joins seek through it).  Observes
    the [vectors.gallop.skip] histogram with the distance skipped. *)

val add : t -> int -> bool
(** [add v x] inserts [x] keeping order; returns [false] if already
    present.  O(1) amortised when [x > max_elt v]. *)

val remove : t -> int -> bool
(** [remove v x] deletes [x]; returns [false] if absent. *)

val insert_at : t -> int -> int -> unit
(** [insert_at v i x] shifts positions [i..] up one and stores [x] at
    [i] — the second half of {!add}, for a caller that already found
    [i] (e.g. with {!index_geq}) and knows [x] belongs there; order is
    not re-checked.  @raise Invalid_argument unless [0 <= i <= length v]. *)

val remove_at : t -> int -> unit
(** [remove_at v i] deletes the element at position [i] — the second
    half of {!remove}.  @raise Invalid_argument unless [0 <= i < length v]. *)

val iter : (int -> unit) -> t -> unit

val iter_from : (int -> unit) -> t -> int -> unit
(** [iter_from f v x] applies [f] to every element [>= x] in order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list

val to_array : t -> int array

val choose_arbitrary : t -> int option
(** Some element, or [None] on empty (the smallest, in fact). *)

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val copy : t -> t

val clear : t -> unit

val memory_words : t -> int

val shares : t -> t -> bool
(** [shares a b]: [a] and [b] are the same storage — one mutable vector
    ([==]), or slices of the same stream ([==]) at the same offset and
    length.  The §4.1 sharing test of twin orderings. *)

val pp : Format.formatter -> t -> unit

val check_invariant : t -> unit
(** Asserts strict ascending order; test helper.
    @raise Assert_failure when the invariant is broken. *)

(** {1 Streams and slices}

    A [stream] is one big immutable payload shared by many slices — the
    flat index keeps a few of them per ordering and exposes every
    terminal list and key run as a 4-word slice header.  A raw stream
    is the [int array] itself; a packed one is bit-packed once from a
    complete array.  Streams are never mutated. *)

type stream

val stream_of_array : ?kind:kind -> int array -> stream
(** [stream_of_array ~kind a]: [Packed] (the default) bit-packs a copy
    of [a] (any order: frame-of-reference coding assumes only a small
    per-block range); [Raw] adopts [a] itself, which the caller must
    not touch afterwards. *)

val stream_length : stream -> int

val stream_get : stream -> int -> int
(** @raise Invalid_argument out of bounds. *)

val stream_index_geq : stream -> lo:int -> hi:int -> int -> int
(** [stream_index_geq s ~lo ~hi x] is {!index_geq} over positions
    [lo, hi) of [s], which must be ascending there: the index of the
    first element [>= x], or [hi].  No slice is built; it counts as one
    binary search.
    @raise Invalid_argument when a probed position is out of bounds. *)

val slice : stream -> off:int -> len:int -> t
(** A zero-copy view of positions [off, off+len), which must be
    strictly increasing for the sorted reads to hold.
    @raise Invalid_argument out of bounds. *)

val stream_memory_words : stream -> int
(** Exact footprint of the stream, its payload and headers included. *)

val stream_validate : stream -> string list
(** Codec-level structural audit; empty means sound (always, for raw
    streams). *)

val compress : kind -> t -> t
(** [compress k v] re-encodes [v]'s elements as a standalone vector of
    representation [k].  [Raw] materialises a mutable copy (identity on
    already-raw vectors). *)

val block_violations : t -> string list
(** Per-block header violations of the vector's backing stream (empty
    for raw vectors) — the codec leg of [Check.Invariant.sorted_ivec]. *)
