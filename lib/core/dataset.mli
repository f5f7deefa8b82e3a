(** Named graphs: an RDF dataset over Hexastores.

    §2.2.2 discusses the quad-oriented stores (Harth & Decker's six
    indices over {s,p,o,c}, Kowari's models) that add a context/model
    dimension; the Hexastore itself indexes triples.  A dataset composes
    the two designs the natural way: one default graph plus any number of
    named graphs, each its own fully-indexed Hexastore, all sharing a
    single dictionary so ids (and therefore merge-joins) work across
    graphs. *)

type t

val create : ?dict:Dict.Term_dict.t -> unit -> t

val dict : t -> Dict.Term_dict.t

val default_graph : t -> Hexastore.t

val graph : t -> Rdf.Term.t -> Hexastore.t option
(** The named graph, if it exists.  Graph names are IRIs or blank
    nodes. *)

val get_or_create_graph : t -> Rdf.Term.t -> Hexastore.t
(** @raise Invalid_argument when the name is a literal. *)

val drop_graph : t -> Rdf.Term.t -> bool
(** Remove a named graph wholesale; [false] if absent. *)

val graph_names : t -> Rdf.Term.t list
(** Sorted names of the non-default graphs. *)

val add : t -> ?graph:Rdf.Term.t -> Rdf.Triple.t -> bool
(** Insert into the named graph (created on demand) or, without [graph],
    the default graph. *)

val remove : t -> ?graph:Rdf.Term.t -> Rdf.Triple.t -> bool

val size : t -> int
(** Total statements across all graphs (a triple present in two graphs
    counts twice, as in SPARQL datasets). *)

val lookup : t -> ?graph:Rdf.Term.t -> Pattern.t -> (int -> int -> int -> unit) -> unit
(** [lookup t ?graph pat f] calls [f s p o] for every match in one graph
    (the default graph when omitted; nothing for an unknown name), in
    {!Hexastore.iter}'s order. *)

val lookup_all : t -> Pattern.t -> (Rdf.Term.t option -> int -> int -> int -> unit) -> unit
(** Across every graph: [f graph s p o] per match, [graph] the match's
    graph name ([None] = default graph), the default graph first and
    then the named ones in {!graph_names} order — the quad-level access
    of [§2.2.2]'s schemes, answered by per-graph sextuple indices. *)

val union_store : t -> Hexastore.t
(** A fresh Hexastore over the union of all graphs (the RDF merge),
    sharing the dataset's dictionary. *)

val memory_words : t -> int
