(** A naive reference triple store: a sorted list of id-triples.

    Deliberately too simple to be wrong — every operation is a linear
    scan or filter over a strictly sorted (s, p, o) list.  The
    differential model-checker ({!Diff}) runs random operation sequences
    against this and the real {!Hexa.Hexastore} and diffs the results. *)

type t

val compare_spo : Dict.Term_dict.id_triple -> Dict.Term_dict.id_triple -> int
(** Lexicographic (s, p, o) order. *)

val create : unit -> t

val size : t -> int

val mem : t -> Dict.Term_dict.id_triple -> bool

val add : t -> Dict.Term_dict.id_triple -> bool
(** [false] when already present — mirrors {!Hexa.Hexastore.add_ids}. *)

val remove : t -> Dict.Term_dict.id_triple -> bool

val lookup : t -> Hexa.Pattern.t -> Dict.Term_dict.id_triple list
(** All matching triples in (s, p, o) order. *)

val count : t -> Hexa.Pattern.t -> int

val to_list : t -> Dict.Term_dict.id_triple list
(** All triples in (s, p, o) order. *)

val pushed : ((int -> int -> int -> unit) -> unit) -> Dict.Term_dict.id_triple list
(** [pushed read] is the triples a push read hands out, in its order —
    e.g. [pushed (Hexa.Hexastore.iter h pat)] — for comparing a store's
    reads with {!lookup}. *)
