(** Sorted vectors of distinct integers.

    The backbone of every Hexastore vector and terminal list (§4.1 of the
    paper: "The keys of resources in all vectors and lists used in a
    Hexastore are sorted").  Elements are kept strictly increasing, so a
    [Sorted_ivec.t] is simultaneously an ordered set and a merge-join
    operand.

    Mutation is by binary insertion — O(n) worst case, which mirrors the
    paper's observation that updates are the Hexastore's weak spot — with an
    O(1) amortised fast path when keys arrive in ascending order (the bulk
    loading case).

    Since PR 10 a sorted vector is either that raw mutable form or an
    immutable {e slice} of a shared compressed stream ({!Packed_ivec}
    frame-of-reference bit-packing or {!Delta_ivec} delta+varint).
    Every read — including the galloping {!search_from} the merge
    kernels lean on — works on all three representations without
    materialising arrays; mutations ({!add}, {!remove}, {!clear}) raise
    [Invalid_argument] on compressed slices. *)

type t

(** Physical representation of a vector or stream. *)
type kind = Raw | Packed | Delta_varint

val kind_name : kind -> string
(** ["raw"], ["packed"], ["delta_varint"]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name} (case-insensitive; ["delta"] also accepted).
    This parses the [HEXASTORE_REPR] environment variable. *)

val kind_of : t -> kind

val is_compressed : t -> bool
(** [kind_of v <> Raw]. *)

val create : ?capacity:int -> unit -> t

val singleton : int -> t

val of_sorted_array : int array -> t
(** [of_sorted_array a] adopts a copy of [a].
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
    executor's merge joins.  Observes the [vectors.gallop.skip]
    histogram with the distance skipped. *)

val add : t -> int -> bool
(** [add v x] inserts [x] keeping order; returns [false] if already
    present.  O(1) amortised when [x > max_elt v]. *)

val remove : t -> int -> bool
(** [remove v x] deletes [x]; returns [false] if absent. *)

val merge_sorted : t -> int array -> unit
(** [merge_sorted v a] inserts the strictly increasing elements of [a],
    none of them in [v], in place: O(k + moved) where [moved] is the
    number of elements of [v] above [a.(0)], against O(k · n) for [k]
    {!add}s.  The batch form of {!add} for out-of-order keys.
    @raise Invalid_argument if [a] is not strictly increasing, or if an
    element of [a] is already in [v] (then [v] is left unspecified). *)

val iter : (int -> unit) -> t -> unit

val iter_from : (int -> unit) -> t -> int -> unit
(** [iter_from f v x] applies [f] to every element [>= x] in order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list

val to_array : t -> int array

val to_seq : t -> int Seq.t

val to_seq_from : t -> int -> int Seq.t
(** Elements [>= x] in ascending order. *)

val choose_arbitrary : t -> int option
(** Some element, or [None] on empty (the smallest, in fact). *)

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val copy : t -> t

val clear : t -> unit

val memory_words : t -> int

val pp : Format.formatter -> t -> unit

val check_invariant : t -> unit
(** Asserts strict ascending order; test helper.
    @raise Assert_failure when the invariant is broken. *)

(** {1 Compressed streams and slices}

    A [stream] is one big encoded payload shared by many slices — the
    flat index keeps four of them per ordering and exposes every
    terminal list and key run as a 4-word slice header.  Streams are
    encoded once from a complete array and never mutated. *)

type stream

val stream_of_array : kind -> segments:int array -> int array -> stream
(** Encodes [a] with the given codec.  [segments] lists the start
    positions of the monotone runs concatenated in [a] (ascending); the
    delta codec aligns its blocks on them so every run starts on a
    block boundary (the bit-packed codec, being order-agnostic, ignores
    them).  @raise Invalid_argument on [Raw], or if a delta block is
    not strictly increasing. *)

val stream_length : stream -> int

val stream_get : stream -> int -> int

val slice : stream -> off:int -> len:int -> t
(** A zero-copy view of positions [off, off+len).  For the delta codec
    the window must be one monotone segment (as declared to
    {!stream_of_array}).  @raise Invalid_argument out of bounds. *)

val stream_memory_words : stream -> int
(** Exact footprint of the encoded stream, headers included. *)

val stream_validate : stream -> string list
(** Codec-level structural audit; empty means sound. *)

val compress : kind -> t -> t
(** [compress k v] re-encodes [v]'s elements as a standalone
    single-segment vector of representation [k].  [Raw] materialises a
    mutable copy (identity on already-raw vectors). *)

val block_violations : t -> string list
(** Per-block header violations of the vector's backing stream (empty
    for raw vectors) — the codec leg of [Check.Invariant.sorted_ivec]. *)

val note_bytes_saved : int -> unit
(** Adds to the [vectors.repr.bytes_saved] counter (store compression
    reports its before/after delta here). *)
