(** Benchmark harness: timing, prefix sweeps and series output.

    The paper's figures plot query response time against the number of
    triples in the store, per method, on log axes.  A {!sweep} builds
    each competitor at progressively larger prefixes of a generated data
    set (all over one shared dictionary) and times each query at each
    size; the output is a gnuplot-style series block per figure. *)

val time : ?warmup:int -> ?repeats:int -> (unit -> 'a) -> float * 'a
(** [time f] is the median wall-clock seconds over [repeats] (default 3)
    timed runs after [warmup] (default 1) untimed ones, and [f]'s result
    from the last run. *)

type sized_stores = {
  n_triples : int;     (** store size at this sweep point *)
  stores : Stores.t list;  (** one per requested kind, sharing a dictionary *)
  dict : Dict.Term_dict.t;
}

val build_prefixes :
  kinds:Stores.kind list -> sizes:int list -> Rdf.Triple.t Seq.t -> sized_stores list
(** Encode the data set once into a shared dictionary and load each
    requested prefix size into fresh stores.  Sizes beyond the data set's
    length are clamped (duplicates collapse). *)

val hexastore : Stores.t list -> Hexa.Hexastore.t option
(** The Hexastore among a sweep point's stores, if one was built. *)

(** One measured point of a figure. *)
type point = {
  size : int;
  method_ : string;
  seconds : float;
}

val pp_series : figure:string -> title:string -> Format.formatter -> point list -> unit
(** Print a figure block:
    {v
# figure fig10 — LUBM Query 1
# triples  method  seconds
50000 Hexastore 0.000012
...
    v} *)

val words_to_mb : int -> float
