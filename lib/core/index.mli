(** One of the six Hexastore orderings.

    An index maps a header resource (the first element of the ordering) to
    a sorted run of second elements, its {e entries}, each of which
    carries a shared terminal list of third elements (Figure 2 of the
    paper).  [Hexastore] instantiates six of these and decides which
    roles the three levels play.

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
    ({!refill}) and, where they keep them, its twin and siblings.

    Reads go by number.  The header of rank [r] owns the entries
    [[entry_off r, entry_off (r + 1))] of the key stream; entry [k] has
    a {!key} and a terminal run ({!run_length}, {!iter_run}, {!run}).
    A walk allocates nothing per entry; only {!run} and {!key_slice}
    build a slice, for a caller that asks for one. *)

type t

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

(** {1 Reading by entry number} *)

val rank : t -> int -> int
(** [rank idx h] is header [h]'s rank among the headers (its position
    in {!headers_view}), or [-1] when [h] is no header.  One cell read
    of the rank bitmap, or a binary search when the ids are sparse. *)

val header_count : t -> int
(** Number of headers. *)

val entry_off : t -> int -> int
(** [entry_off idx r], for [0 <= r <= header_count idx], is the first
    entry of the header of rank [r]: that header's entries are
    [[entry_off idx r, entry_off idx (r + 1))], and
    [entry_off idx (header_count idx)] is the number of entries. *)

val key : t -> int -> int
(** [key idx k] is entry [k]'s key, the second element of its triples.
    Keys ascend strictly within a header's entries. *)

val next_geq : t -> from:int -> hi:int -> int -> int
(** [next_geq idx ~from ~hi x] is the first entry in [[from, hi)] whose
    key is [>= x], or [hi]: a galloping search
    ({!Vectors.Sorted_ivec.stream_search_from}) in O(log gap), for
    [[from, hi)] within one header's entries.  The resumable cursor of
    sorted merge scans. *)

val entry : t -> int -> int -> int
(** [entry idx first second] is the entry of (first, second), or [-1]
    when either level is absent: a rank and one binary search. *)

val key_slice : t -> int -> Vectors.Sorted_ivec.t
(** [key_slice idx h] is the keys under header [h] as a zero-copy slice
    of the key stream (empty when [h] is no header), for a caller that
    needs them as a sorted set.  Slices raise on mutation. *)

val run_length : t -> int -> int
(** Length of entry [k]'s terminal run; never 0. *)

val iter_run : t -> int -> (int -> unit) -> unit
(** [iter_run idx k g] pushes entry [k]'s terminal run through [g],
    ascending: one stream iteration, the codec matched once. *)

val run : t -> int -> Vectors.Sorted_ivec.t
(** Entry [k]'s terminal run as a zero-copy slice, for the merge
    kernels.  Twin orderings hand out the same window of one stream
    ({!Vectors.Sorted_ivec.shares}). *)

val iter_entries : t -> lo:int -> hi:int -> (int -> int -> unit) -> int
(** [iter_entries idx ~lo ~hi g] calls [g (key idx k) third] for every
    third of every entry [k] in [[lo, hi)], in order, and returns their
    number: one call over the columns, nothing built per entry. *)

(** {1 Reading by value} *)

val find_list : t -> int -> int -> Vectors.Sorted_ivec.t option
(** [find_list idx first second] is the terminal list under
    (first, second), if both levels exist: {!run} of {!entry}.  The one
    way a store reaches a terminal list: it asks the ordering that owns
    it (a Hexastore's [spo], [sop] or [pos], a COVP's [pso] or [pos]),
    or its twin. *)

val iter_header : t -> int -> (int -> int -> unit) -> int
(** [iter_header idx h g] calls [g second third] for every triple under
    header [h], ascending, and returns their number (0 when [h] is no
    header): {!iter_entries} over the header's entries. *)

val iter_lengths : t -> int -> (int -> int -> unit) -> unit
(** [iter_lengths idx h g] calls [g (key idx k) (run_length idx k)] for
    every entry [k] under header [h], ascending (nothing when [h] is no
    header): one pass over the offset columns, no terminal read.  The
    aggregation of §5.2's BQ1. *)

val list_length : t -> int -> int -> int
(** Length of the terminal list under (first, second); 0 when absent.
    Allocates nothing. *)

val header_triples : t -> int -> int
(** Triples under header [h], read from the per-header totals; 0 when
    [h] is no header.  Allocates nothing. *)

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
(** The index's audit: every stream sound in its codec, every offset
    column running from 0 to the length of what it indexes, one step per
    non-empty run, and the rank bitmap's bits and block counts agreeing
    with the headers; then, once the columns are sound, every header by
    entry: headers and each header's keys strictly ascending, every run
    non-empty and strictly ascending, and the header's total equal to
    the sum of its run lengths.  Empty means sound. *)

val check_invariant : t -> unit
(** No {!violations}. *)
