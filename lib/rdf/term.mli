(** RDF terms: IRIs, blank nodes and literals.

    The RDF data model (Manola & Miller, "RDF Primer") underlying the
    paper's triples 〈s, p, o〉.  Subjects are IRIs or blank nodes,
    predicates are IRIs, objects are any term.  Literals carry an optional
    language tag or an optional datatype IRI (mutually exclusive, per the
    RDF 1.0 abstract syntax the paper's data uses). *)

type literal = private {
  value : string;
  lang : string option;      (** language tag, lowercase, e.g. ["en"] *)
  datatype : string option;  (** datatype IRI *)
}

(** Private, like {!literal}: terms are built only through the
    constructors below, which keep {!to_string} canonical — parsing a
    term's spelling ({!Ntriples.parse_term}) gives the term back. *)
type t = private
  | Iri of string
  | Blank of string  (** blank node label, without the [_:] prefix *)
  | Literal of literal

val iri : string -> t
(** @raise Invalid_argument on the empty string, embedded whitespace,
    [<], [>] or a backslash (which a parser would read as an escape). *)

val cut_iri : string -> int -> int -> t
(** [cut_iri s lo stop] is the IRI [s.[lo .. i - 1]], where [s.[i]] is
    the first character in [[lo, stop)] that {!iri} rejects: one pass
    finds and checks an N-Triples IRI up to its closing ['>'].
    @raise Not_found unless [s.[i]] is that ['>'] and [i > lo]. *)

val blank : string -> t
(** @raise Invalid_argument on an empty or non [A-Za-z0-9_.-] label. *)

val literal : ?lang:string -> ?datatype:string -> string -> t
(** [lang] is stored lowercased, as the parsers store it.
    @raise Invalid_argument when both [lang] and [datatype] are given,
    on a language tag that is empty or has a character outside
    [[A-Za-z0-9-]], and on a datatype that {!iri} rejects. *)

val string_literal : string -> t
(** Plain literal with neither language nor datatype. *)

val typed_literal : string -> datatype:string -> t
(** @raise Invalid_argument on a datatype that {!iri} rejects. *)

val int_literal : int -> t
(** Literal typed [xsd:integer]. *)

(** The constructors' character checks, which the N-Triples scanner
    cuts terms with: [iri_end s i n] is the first index in [[i, n)]
    holding a character {!iri} rejects, or [n]; [label_end] and
    [tag_end] stop outside [[A-Za-z0-9_.-]] and [[A-Za-z0-9-]]. *)

val iri_end : string -> int -> int -> int
val label_end : string -> int -> int -> int
val tag_end : string -> int -> int -> int

val is_iri : t -> bool
val is_blank : t -> bool
val is_literal : t -> bool

val as_iri : t -> string option
(** The IRI string if the term is an IRI. *)

val literal_value : t -> string option

val compare : t -> t -> int
(** Total order: IRIs < blanks < literals, then lexicographic. *)

val equal : t -> t -> bool

val to_string : t -> string
(** N-Triples surface syntax: [<iri>], [_:label], ["value"@lang],
    ["value"^^<dt>]. *)

val pp : Format.formatter -> t -> unit

val escape_literal : string -> string
(** N-Triples/Turtle escaping of a literal value's characters
    (backslash, double quote, newline, carriage return, tab). *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
