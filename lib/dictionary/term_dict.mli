(** Dictionary encoding over RDF terms.

    The store-facing layer of the mapping table (§4.1): an id maps to
    its term's canonical N-Triples spelling ({!Rdf.Term.to_string}),
    and the spellings are the whole table — no parsed term is kept.
    Spelling keys give an IRI, a blank node and a literal with the same
    text distinct ids; {!decode_term} parses the stored spelling on
    demand, and {!spelling} hands it out as is.  Triples encode to
    id-triples ready for the six indices. *)

type t

(** An encoded triple: ids of subject, predicate, object. *)
type id_triple = {
  s : int;
  p : int;
  o : int;
}

val create : ?initial_size:int -> unit -> t
(** [initial_size] (default 1024) is the number of terms the mapping
    table is sized for before it first grows; a snapshot load passes
    its term count, so its table never grows. *)

val encode_term : t -> Rdf.Term.t -> int
(** Id of the term, allocated on first sight. *)

val find_term : t -> Rdf.Term.t -> int option
(** Lookup without allocation. *)

val encode_spelling : t -> string -> int
(** [encode_spelling d s] is {!encode_term} of the term [s] spells,
    without parsing it: the id of [s], allocated on first sight.  A
    snapshot load fills the table this way.
    @raise Invalid_argument unless [s] is a canonical spelling
    ({!Rdf.Ntriples.is_term_spelling}). *)

val decode_term : t -> int -> Rdf.Term.t
(** Parses the stored spelling: an allocation per call, so hot paths
    read {!spelling} instead.
    @raise Invalid_argument on an unallocated id. *)

val spelling : t -> int -> string
(** The term's canonical N-Triples spelling ({!Rdf.Term.to_string}),
    which is what the mapping table stores: returned as is, without
    parsing or allocating.
    @raise Invalid_argument on an unallocated id. *)

val encode_triple : t -> Rdf.Triple.t -> id_triple
(** Encodes the object, then the predicate, then the subject: a
    triple's new terms take ids in that order. *)

val find_triple : t -> Rdf.Triple.t -> id_triple option
(** [None] when any of the three terms is unknown. *)

val decode_triple : t -> id_triple -> Rdf.Triple.t

val size : t -> int

val memory_words : t -> int
