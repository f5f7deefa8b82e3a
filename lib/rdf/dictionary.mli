(** Dictionary encoding of strings as dense integer ids.

    §4.1: "we map string URIs to integer identifiers.  Thus, apart from the
    six indices using identifiers (i.e., keys) for each RDF element value,
    a Hexastore also maintains a mapping table that maps these keys to
    their corresponding strings."

    Ids are allocated densely from 0 in first-seen order, so they double as
    array indices throughout the store.  The dictionary is append-only:
    RDF stores never garbage-collect the mapping table (a removed triple's
    terms may be re-added, and id stability keeps the indices valid).
    The table's layout is in DESIGN.md, "The mapping table".

    A spelling is looked up where it lies: as a byte range of a larger
    text ({!find_sub}, {!encode_sub}), or as an IRI whose spelling adds
    the brackets ({!find_iri}, {!encode_iri}).  One hash serves every
    form, so a lookup copies nothing, and only a miss that allocates an
    id copies the spelling out.  The N-Triples scanner and the term
    dictionary ([Dict.Term_dict]) share this one probe. *)

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

val find_sub : t -> string -> int -> int -> int
(** [find_sub d s pos len] is [find d (String.sub s pos len)] without
    the copy, as an id or [-1] when absent.
    @raise Invalid_argument unless the range lies within [s]. *)

val encode_sub : t -> string -> int -> int -> int
(** [encode_sub d s pos len] is [encode d (String.sub s pos len)]; the
    substring is copied only when it takes a fresh id.
    @raise Invalid_argument unless the range lies within [s]. *)

val find_iri : t -> string -> int
(** [find_iri d iri] looks up the spelling ["<" ^ iri ^ ">"] without
    building it: its id, or [-1] when absent. *)

val encode_iri : t -> string -> int
(** [encode_iri d iri] is [encode d ("<" ^ iri ^ ">")], building that
    spelling only when it takes a fresh id. *)

val hash_sub : string -> int -> int -> int
(** The hash bits a slot keeps for the spelling [String.sub s pos len],
    computed in place: in [[0, 2{^31})], and the same wherever the bytes
    lie.  An IRI's spelling hashes the same through {!find_iri}.
    @raise Invalid_argument unless the range lies within [s]. *)

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
