(** Property-path expressions (SPARQL 1.1 style) over a Hexastore.

    §4.3's path expressions: a fixed property chain p{_1}/…/p{_n} is a
    [Seq] of [Pred]s, whose (start, end) pairs are {!pairs} and whose
    reachable set from one node is {!eval_from}.  The full path algebra
    adds alternative, inverse, optional, and the transitive closures
    [+] and [*] that §4.3 frames as the RDF instance of the
    transitive-closure problem.  Every step reads the store's sorted
    indices (o-lists of (s, p) forward, s-lists of (p, o) backward) and
    builds each frontier with one sort, and closures are evaluated on
    demand by frontier search, never by materialising path tables.

    Surface syntax accepted by {!parse} (binding tightest to loosest:
    grouping, [^], postfix [+ * ?], [/], [|]):
    {v
path := path '|' path          alternative
      | path '/' path          sequence
      | '^' path               inverse
      | path '+'               one or more
      | path '*'               zero or more
      | path '?'               zero or one
      | '(' path ')'
      | <iri> | prefix:local   a property
    v} *)

type t =
  | Pred of string          (** property IRI *)
  | Inv of t
  | Seq of t * t
  | Alt of t * t
  | Plus of t
  | Star of t
  | Opt of t

exception Parse_error of string

val parse : ?namespaces:Rdf.Namespace.table -> string -> t
(** @raise Parse_error on malformed syntax or unbound prefixes. *)

val eval_from : Hexa.Hexastore.t -> start:int -> t -> Vectors.Sorted_ivec.t
(** Nodes reachable from [start] along the path.  [Star] includes
    [start] itself. *)

val eval_into : Hexa.Hexastore.t -> t -> target:int -> Vectors.Sorted_ivec.t
(** Nodes from which [target] is reachable — [eval_from] over the
    inverted path, using the object-sorted indices. *)

val holds : Hexa.Hexastore.t -> t -> s:int -> o:int -> bool

val pairs : Hexa.Hexastore.t -> t -> (int * int) list
(** All (start, end) pairs, sorted and de-duplicated.  For closure paths
    this enumerates sources and runs a frontier search from each —
    O(nodes × reachable); fine at in-memory scale, and exactly the
    computation §4.3 says should not be pre-materialised. *)

val pp : Format.formatter -> t -> unit
