(** The six index orderings, as first-class values.

    §4.1 names the orderings by the initials of the three RDF elements in
    priority order; this module gives the rest of the library a common
    vocabulary for talking about them (the advisor, the partial store,
    the usage reports). *)

type t =
  | Spo
  | Sop
  | Pso
  | Pos
  | Osp
  | Ops

val all : t list
(** In the paper's order: spo, sop, pso, pos, osp, ops. *)

val name : t -> string
(** Lowercase three-letter name. *)

val of_name : string -> t option

(** Which ordering serves each access shape natively (the one
    {!Hexastore.lookup} uses). *)
val for_shape : Pattern.shape -> t

val positions : t -> Pattern.position list
(** The three triple positions in this ordering's priority order,
    e.g. [positions Pos = [Pred; Obj; Subj]]. *)

val emit : t -> (int -> int -> int -> 'a) -> int -> int -> int -> 'a
(** [emit ord f a b c] is [f s p o] for the triple whose values in
    [ord]'s priority order are [a], [b], [c] — how a push scan of an
    ordering's index hands its triples on without building records. *)

val twin : t -> t
(** The ordering sharing this one's terminal lists (§4.1):
    spo↔pso, sop↔osp, pos↔ops. *)

val compare_triples : t -> Dict.Term_dict.id_triple -> Dict.Term_dict.id_triple -> int
(** [compare_triples ord] ranks whole triples in [ord]'s significance
    order, e.g. [compare_triples Pos] compares predicates, then objects,
    then subjects — the order in which [ord]'s index enumerates them.
    Each ordering gets its own specialised top-level comparator, so a
    sort pays no tuple allocation or polymorphic compare. *)

val sort_triples : t -> Dict.Term_dict.id_triple array -> Dict.Term_dict.id_triple array
(** [sort_triples ord a] is a fresh copy of [a] stably sorted in
    [ord]'s significance order (the order of {!compare_triples}), in
    linear time: a {!Vectors.Radix} counting sort per position, least
    significant first.  The one triple sort of the store's bulk passes.
    @raise Invalid_argument on a negative id. *)

val sort_distinct : t -> Dict.Term_dict.id_triple array -> Dict.Term_dict.id_triple array
(** {!sort_triples} with repeats dropped: the batch form every bulk
    write starts from. *)

val resort : from:t -> t -> Dict.Term_dict.id_triple array -> Dict.Term_dict.id_triple array
(** [resort ~from ord a] is {!sort_triples}[ ord a] for an [a] already
    sorted in [from], in at most two stable passes instead of three:
    one on [ord]'s leading position when [ord] ranks the other two as
    [from] does (e.g. spo to osp), two otherwise; [a] itself when
    [ord = from].  Fresh otherwise. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
