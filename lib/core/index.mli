(** One of the six Hexastore orderings.

    An index maps a header resource (the first element of the ordering) to
    a {!Pair_vector.t} of second elements whose payloads are the shared
    terminal lists of third elements.  The module is ordering-agnostic:
    [Hexastore] instantiates six of these and decides which roles the
    three levels play.

    An index has two forms.  The {e flat} form is immutable: a CSR of
    streams ({!Vectors.Sorted_ivec.stream}, raw [int array]s or
    bit-packed) built in one fill from sorted columns
    ({!of_sorted_columns}); an ordering built that way owns its terminal
    runs, and its twin keeps one owner entry number per entry instead of
    a copy, so a twin pair stores each terminal list once (§4.1).  The
    {e hashed} form is a header [Hashtbl] of mutable pair vectors and
    lists: what point writes ({!add_third}, {!remove_third}) and the
    linked bulk pass ({!link_runs}) work on.  Writes on a flat index
    raise [Invalid_argument]; the store swaps whole representations
    instead ({!thaw}). *)

type t

val create : ?initial_headers:int -> unit -> t
(** A fresh mutable (hashed) index. *)

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

val of_sorted_columns :
  ?kind:Vectors.Sorted_ivec.kind ->
  firsts:int array ->
  seconds:int array ->
  thirds:int array ->
  unit ->
  t * t
(** The flat build: [of_sorted_columns ~kind ~firsts ~seconds ~thirds ()]
    takes distinct triples as three parallel columns sorted on (first,
    second, third) and builds, in one fill, the ordering they describe
    (the {e owner}) and its twin, keyed (second, first).  The owner is
    a CSR: sorted headers, header offsets into the second-level keys,
    entry offsets into [thirds], which is the terminal stream — adopted
    as it is by the [Raw] codec (the default), so the caller must not
    touch it afterwards.  The twin's entries come from a stable counting
    sort ({!Vectors.Radix}) of the owner's entries on second; it keeps
    their owner entry numbers and per-header triple counts, and reads
    its terminal lists from the owner's streams.
    @raise Invalid_argument if the columns differ in length or are not
    sorted and distinct. *)

val thaw : owner:t -> twin:t -> t * t
(** The hashed form of a flat pair built by {!of_sorted_columns}: one
    mutable terminal list per owner entry, reached from both orderings
    — no sort, the flat entries are already in order.  Hashed pairs
    come back as they are.
    @raise Invalid_argument if [twin] is flat but no twin. *)

val link : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** [link idx ~first ~second l] registers the shared terminal list [l]
    under (first, second) and counts one more triple under [first]'s
    vector — the point-insert path: a new header goes straight into the
    sorted header vector. *)

val link_bulk : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** {!link} for bulk passes into a hashed index (COVP and [Partial]
    bulk loads).  A new header below the current largest one is only
    recorded as pending, and so is a new second-level key below its
    vector's largest key; keys above it are appended at once.  The pass
    must end with {!seal}.  Until then the sorted header reads
    ({!headers_view}, {!headers}, {!iter_sorted}, {!iter_triples}) and
    {!remove_header} raise [Invalid_argument], and the pending keys are
    missing from their vectors. *)

val seal : t -> unit
(** Ends a bulk pass with one pass per touched vector: each vector
    merges its recorded keys in one {!Pair_vector.merge_sorted}, and the
    header vector merges the pending headers in one
    {!Vectors.Sorted_ivec.merge_sorted} — O(h + k log k) per batch
    instead of O(h) per header.  No-op outside a bulk pass. *)

val pending_headers : t -> int
(** Headers awaiting {!seal}; 0 outside a bulk pass. *)

val pending_links : t -> int
(** Second-level keys awaiting {!seal}'s merge; 0 outside a bulk pass. *)

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
(** One bulk pass of a list family by linking: every COVP and [Partial]
    bulk load.  [a] is
    sorted on (first, second, third); each run of one (first, second)
    goes into the terminal list under it (a new one when absent) — appended
    when the run lands above the list's elements, merged in one pass
    otherwise — and each element the list did not hold is linked
    ({!link_bulk}) under (first, second) in the index and under
    (second, first) in [twin], then passed to [fresh].  Repeated
    elements count once.  The pass must end with {!seal} on both. *)

val remove_header : t -> int -> bool

val iter : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in unspecified order (hash order). *)

val iter_sorted : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in ascending id order (streams the maintained sorted
    header vector; O(h)). *)

val iter_triples : t -> (int -> int -> int -> unit) -> unit
(** [iter_triples idx f] calls [f first second third] for every triple
    the index reaches, ascending on (first, second, third); on a flat
    index a loop over its columns that allocates nothing. *)

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
    once.  0 on flat indices, whose terminal stream the owner's
    {!memory_words} already counts. *)

val map_streams : (string -> int array -> int array) -> t -> t
(** [map_streams f idx] is a flat index whose every own stream is [f
    name cells] of [idx]'s, re-encoded in the same codec; a twin keeps
    its owner's terminal streams.  Names: ["headers"], ["key_off"],
    ["keys"], then ["list_off"] and ["terms"] on an owner, ["entry"] and
    ["tot_off"] on a twin.  Nothing is checked: this is how the
    seeded-corruption tests reach a flat index's columns.  Hashed
    indices come back as they are. *)

val check_invariant : t -> unit
(** Sorted headers match the hashtable, no header or link is pending,
    and every vector is sound. *)
