(** Dictionary encoding of strings as dense integer ids.

    §4.1: "we map string URIs to integer identifiers.  Thus, apart from the
    six indices using identifiers (i.e., keys) for each RDF element value,
    a Hexastore also maintains a mapping table that maps these keys to
    their corresponding strings."

    Ids are allocated densely from 0 in first-seen order, so they double as
    array indices throughout the store.  The dictionary is append-only:
    RDF stores never garbage-collect the mapping table (a removed triple's
    terms may be re-added, and id stability keeps the indices valid).
    The table's layout is in DESIGN.md, "The mapping table". *)

type t

val max_ids : int
(** The id space: 2{^31} ids, [0 .. max_ids - 1]. *)

val create : ?initial_size:int -> unit -> t
(** [initial_size] (default 1024) strings fit before the table first
    grows. *)

val encode : t -> string -> int
(** [encode d s] is the id of [s], allocating a fresh one on first sight.
    @raise Invalid_argument once the id space (2{^31} ids) is exhausted. *)

val find : t -> string -> int option
(** Lookup without allocation: [None] when [s] was never encoded.  Queries
    use this so that asking about an unknown resource cannot grow the
    dictionary. *)

val decode : t -> int -> string
(** @raise Invalid_argument when [id] was never allocated. *)

val size : t -> int
(** Number of allocated ids; ids are exactly [0 .. size - 1]. *)

val mem : t -> string -> bool

val iter : (int -> string -> unit) -> t -> unit
(** In ascending id order. *)

val fold : (int -> string -> 'a -> 'a) -> t -> 'a -> 'a

val memory_words : t -> int
(** Exact heap words of the table and the stored strings. *)
