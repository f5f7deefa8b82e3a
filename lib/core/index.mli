(** One of the six Hexastore orderings.

    An index maps a header resource (the first element of the ordering) to
    a {!Pair_vector.t} of second elements whose payloads are the shared
    terminal lists of third elements.  [Hexastore] instantiates six of
    these and decides which roles the three levels play.

    An index is immutable: a CSR of streams ({!Vectors.Sorted_ivec.stream})
    built in one fill from sorted columns ({!of_sorted_columns}).  Its
    columns:
    - the {e header level}: the sorted header ids, a rank over them (a
      bitmap with a count per 32 ids, or a binary search when the ids are
      sparse) and the cumulative triple count per header ([tot_off]);
    - [key_off], per header, the offset of its run of second-level
      [keys];
    - [list_off], per entry, where its run starts in the terminal stream
      [terms]: on an {e owner}, whose runs tile [terms] in order, one
      more cell gives each run's end; on its {e twin}, which reads the
      owner's [terms], [lens] gives each run's length.

    The payload ([headers], [keys], [terms]) is in the store's codec,
    raw [int array]s or bit-packed; the pointer columns ([tot_off],
    [key_off], [list_off], [lens]) are bit-packed in every store.

    Two kinds of sharing keep each column once.  A twin pair stores each
    terminal list once (§4.1): the owner (a Hexastore's [spo], [sop],
    [pos]) holds the runs and its twin ([pso], [osp], [ops]) reads them.
    Two {e siblings}, the orderings with the same first position
    ([spo]/[sop], [pso]/[pos], [osp]/[ops]), share one header level: the
    one built first owns it ([spo], [pos], [osp] in a Hexastore) and the
    other adopts it ([?level]).  Stores write by building a new owner
    ({!refill}) and, where they keep them, its twin and siblings. *)

type t

val find_vector : t -> int -> Pair_vector.t option
(** Pair vector under a header: a view over the streams. *)

val of_sorted_columns :
  ?kind:Vectors.Sorted_ivec.kind ->
  ?level:t ->
  firsts:int array ->
  seconds:int array ->
  thirds:int array ->
  unit ->
  t * (?level:t -> unit -> t)
(** The fill: [of_sorted_columns ~kind ~firsts ~seconds ~thirds ()]
    takes distinct triples as three parallel columns sorted on (first,
    second, third) and builds the ordering they describe, the {e owner}:
    its header level, key offsets and keys, run offsets into [thirds],
    which is the terminal stream — adopted as it is by the [Raw] codec
    (the default), so the caller must not touch it afterwards.  With
    [level], the owner adopts that sibling's header level instead of
    building one: the sibling must be an ordering of the same triples
    with the same first position.  The second component builds the
    owner's {e twin}, keyed (second, first), when called (with its own
    sibling [level], if any): a stable counting sort
    ({!Vectors.Radix}) of the owner's entries on second, carrying each
    entry's run start and length; it reads its terminal lists from the
    owner's stream.  A store that does not keep the twin never calls it.
    @raise Invalid_argument if the columns differ in length or are not
    sorted and distinct, or if [level]'s header count differs. *)

val refill :
  ?level:t ->
  t ->
  Ordering.t ->
  add:Dict.Term_dict.id_triple array ->
  remove:Dict.Term_dict.id_triple array ->
  t * (?level:t -> unit -> t)
(** [refill owner ord ~add ~remove] is {!of_sorted_columns} over
    [owner]'s triples with [add] merged in and [remove] left out, for an
    [owner] of ordering [ord], in [owner]'s codec and with the sibling
    [level], if given: [add] (triples [owner] lacks) and [remove]
    (triples it holds) are distinct and sorted on (s, p, o), re-sorted
    into [ord] ({!Ordering.resort}) and merged with [owner]'s scan in
    one pass.  O(n + batch).  Every write to a populated store —
    Hexastore, COVP or [Partial] — is one call per kept list family.
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

val iter_lengths : t -> int -> (int -> int -> unit) -> unit
(** [iter_lengths idx h g] calls [g second n] for every entry under
    header [h], ascending on second, with [n] the length of its terminal
    list (nothing when [h] is no header).  A loop over the offset
    columns: no terminal is read. *)

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

val shares_level : t -> t -> bool
(** [shares_level a b]: [a] and [b] read one header level, physically —
    the sharing of sibling orderings. *)

val memory_words : t -> int
(** Exact words of the index's record and of the columns it owns: an
    owner counts its terminal stream, a twin only its own columns, and
    a sibling's header level counts in the index that built it. *)

val map_streams : (string -> int array -> int array) -> t -> t
(** [map_streams f idx] is an index whose every own column is [f name
    cells] of [idx]'s, re-encoded in that column's own codec; a twin
    keeps its owner's terminal stream.  The result owns a fresh header
    level, shared with no sibling.  Names: ["headers"], ["rank"] (the
    bitmap cells, [[||]] without one), ["tot_off"], ["key_off"],
    ["keys"], ["list_off"], then ["terms"] on an owner, ["lens"] on
    a twin.  Nothing is checked: this is how the seeded-corruption tests
    reach an index's columns. *)

val violations : t -> string list
(** The columns' own audit: every stream sound in its codec, every
    offset column running from 0 to the length of what it indexes, one
    step per non-empty run, and the rank bitmap's bits and block counts
    agreeing with the headers.  Empty means sound. *)

val check_invariant : t -> unit
(** Sorted headers, no {!violations}, and every vector sound. *)
