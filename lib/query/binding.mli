(** Solution mappings: variable → value bindings produced by query
    evaluation.

    The executor works on slot rows: {!Compile} gives each variable of a
    query a column, and a solution is an [int array] holding one encoded
    value per column (see {!encode}).  A [t] is a view of such a row
    through the query's shared schema, the slot → variable name array;
    the accessors below read it by variable name.  Values decode through
    the dictionary's stored spellings. *)

(** A bound value: a dictionary id (RDF term) or a plain integer produced
    by an aggregate. *)
type value =
  | Id of int
  | Int of int

type t
(** An immutable solution mapping. *)

val empty : t

val bind : t -> string -> value -> t
(** [bind b v x] extends the mapping.  Rebinding an already-bound variable
    to a different value raises [Invalid_argument]; query evaluation is
    expected to check compatibility with {!get} first. *)

val get : t -> string -> value option

val mem : t -> string -> bool

val vars : t -> string list
(** Bound variables, sorted. *)

val to_list : t -> (string * value) list
(** Sorted by variable; canonical form used for DISTINCT and equality. *)

val compatible : t -> string -> value -> bool
(** [compatible b v x] is true when [v] is unbound or bound to [x]. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val term : Dict.Term_dict.t -> value -> Rdf.Term.t option
(** Decode a value: [Id] decodes through the dictionary, [Int] becomes an
    [xsd:integer] literal. *)

val value_to_string : Dict.Term_dict.t -> value -> string
(** N-Triples spelling of an [Id] (the dictionary's stored string, not a
    copy), decimal digits of an [Int]. *)

val pp : Dict.Term_dict.t -> Format.formatter -> t -> unit

(** {1 Slot rows} *)

val unbound : int
(** The cell of an unbound slot: [-1]. *)

val encode : value -> int
(** A term id is itself (ids are [>= 0]); an aggregate integer [n >= 0]
    is tagged as [-2 - n], below {!unbound}.
    @raise Invalid_argument on a negative [Int]. *)

val decode : int -> value option
(** Inverse of {!encode}; [None] for {!unbound}. *)

val of_row : string array -> int array -> t
(** [of_row names row] views [row] through the schema [names] (slot [i]
    holds variable [names.(i)]).  Both arrays are shared, not copied. *)

val schema : t -> string array

val row : t -> int array
