(** One of the six Hexastore orderings.

    An index maps a header resource (the first element of the ordering) to
    a {!Pair_vector.t} of second elements whose payloads are the shared
    terminal lists of third elements.  [Hexastore] instantiates six of
    these and decides which roles the three levels play.

    An index is immutable: a CSR of streams
    ({!Vectors.Sorted_ivec.stream}, raw [int array]s or bit-packed)
    built in one fill from sorted columns ({!of_sorted_columns}).  An
    ordering built that way owns its terminal runs; its twin keeps one
    owner entry number per entry instead of a copy, so a twin pair
    stores each terminal list once (§4.1).  Stores write by building a
    new owner ({!refill}) and, where they keep it, its twin. *)

type t

val find_vector : t -> int -> Pair_vector.t option
(** Pair vector under a header: a view over the streams. *)

val of_sorted_columns :
  ?kind:Vectors.Sorted_ivec.kind ->
  firsts:int array ->
  seconds:int array ->
  thirds:int array ->
  unit ->
  t * t Lazy.t
(** The fill: [of_sorted_columns ~kind ~firsts ~seconds ~thirds ()]
    takes distinct triples as three parallel columns sorted on (first,
    second, third) and builds the ordering they describe, the {e owner}:
    sorted headers, header offsets into the second-level keys, entry
    offsets into [thirds], which is the terminal stream — adopted as it
    is by the [Raw] codec (the default), so the caller must not touch it
    afterwards.  The second component is its {e twin}, keyed (second,
    first), built when forced: a stable counting sort
    ({!Vectors.Radix}) of the owner's entries on second, keeping their
    owner entry numbers and per-header triple counts; it reads its
    terminal lists from the owner's streams.  A store that does not
    keep the twin never forces it.
    @raise Invalid_argument if the columns differ in length or are not
    sorted and distinct. *)

val empty : ?kind:Vectors.Sorted_ivec.kind -> unit -> t * t Lazy.t
(** {!of_sorted_columns} over no triples, in the given codec ([Raw] by
    default). *)

val refill :
  t -> Ordering.t -> add:Dict.Term_dict.id_triple array -> remove:Dict.Term_dict.id_triple array ->
  t * t Lazy.t
(** [refill owner ord ~add ~remove] is {!of_sorted_columns} over
    [owner]'s triples with [add] merged in and [remove] left out, for an
    [owner] of ordering [ord], in [owner]'s codec: [add] (triples
    [owner] lacks) and [remove] (triples it holds) are distinct and
    sorted on (s, p, o), re-sorted into [ord] ({!Ordering.resort}) and
    merged with [owner]'s scan in one pass.  O(n + batch).  Every write
    to a populated store — Hexastore, COVP or [Partial] — is one call
    per kept list family.
    @raise Invalid_argument if a batch breaks its precondition. *)

val find_list : t -> int -> int -> Vectors.Sorted_ivec.t option
(** [find_list idx first second] is the terminal list under
    (first, second), if both levels exist.  The one way a store reaches
    a terminal list: it asks the ordering that owns it (a Hexastore's
    [spo], [sop] or [pos], a COVP's [pso] or [pos]), or its twin. *)

val iter_list : t -> int -> int -> (int -> unit) -> int
(** [iter_list idx first second g] pushes the terminal list under
    (first, second) through [g], ascending, and returns its length (0
    when absent).  A loop over the columns: no slice, option or closure
    is built. *)

val iter_header : t -> int -> (int -> int -> unit) -> int
(** [iter_header idx h g] calls [g second third] for every triple under
    header [h], ascending, and returns their number (0 when [h] is no
    header).  A loop over the columns, like {!iter_triples}: no view,
    slice or closure per entry. *)

val list_length : t -> int -> int -> int
(** Length of the terminal list under (first, second); 0 when absent.
    Allocates nothing. *)

val header_triples : t -> int -> int
(** Triples under header [h] ({!Pair_vector.total}); 0 when [h] is no
    header.  Allocates nothing. *)

val iter : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in ascending id order, each with its pair vector. *)

val iter_triples : t -> (int -> int -> int -> unit) -> unit
(** [iter_triples idx f] calls [f first second third] for every triple
    the index reaches, ascending on (first, second, third): a loop over
    its columns that allocates nothing. *)

val headers : t -> Vectors.Sorted_ivec.t
(** Fresh sorted vector of header ids (a copy; safe to mutate). *)

val headers_view : t -> Vectors.Sorted_ivec.t
(** The index's own sorted header slice — zero-copy.  Merge-scans seek
    into this directly. *)

val total : t -> int
(** Number of triples reachable through this index. *)

val memory_words : t -> int
(** Exact words of the index's record and of the streams it owns: an
    owner counts its terminal stream, a twin only its own columns. *)

val map_streams : (string -> int array -> int array) -> t -> t
(** [map_streams f idx] is an index whose every own stream is [f name
    cells] of [idx]'s, re-encoded in the same codec; a twin keeps its
    owner's terminal streams.  Names: ["headers"], ["rank_of"],
    ["key_off"], ["keys"], then ["list_off"] and ["terms"] on an owner,
    ["entry"] and ["tot_off"] on a twin.  Nothing is checked: this is
    how the seeded-corruption tests reach an index's columns. *)

val check_invariant : t -> unit
(** Sorted headers, sound streams, and every vector sound. *)
