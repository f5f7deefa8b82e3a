(** Dictionary encoding over RDF terms.

    The store-facing layer of the mapping table: encodes whole
    {!Rdf.Term.t} values (not just their strings) so that an IRI, a blank
    node and a literal with the same spelling get distinct ids, and encodes
    triples to id-triples ready for the six indices. *)

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
    its term count. *)

val encode_term : t -> Rdf.Term.t -> int
(** Id of the term, allocated on first sight. *)

val find_term : t -> Rdf.Term.t -> int option
(** Lookup without allocation. *)

val decode_term : t -> int -> Rdf.Term.t
(** @raise Invalid_argument on an unallocated id. *)

val spelling : t -> int -> string
(** The term's N-Triples spelling ({!Rdf.Term.to_string}), which is the
    key the mapping table already stores: returned as is, without
    decoding or allocating.
    @raise Invalid_argument on an unallocated id. *)

val encode_triple : t -> Rdf.Triple.t -> id_triple

val find_triple : t -> Rdf.Triple.t -> id_triple option
(** [None] when any of the three terms is unknown. *)

val decode_triple : t -> id_triple -> Rdf.Triple.t

val size : t -> int

val memory_words : t -> int

val pp_id : t -> Format.formatter -> int -> unit
(** Prints the term behind an id (or [?id] when unallocated); debug aid. *)
