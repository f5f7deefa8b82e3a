(** The three competitor stores of §5, as one sum type.

    COVP1 and COVP2 are {!Hexa.Partial} stores keeping [pso], and
    [pso] plus [pos].  The benchmark queries ({!Queries_barton},
    {!Queries_lubm}) implement a distinct execution strategy per
    competitor, following §5.2's descriptions; this module just gives
    the harness a uniform way to build, load and measure them. *)

type t =
  | Hexa of Hexa.Hexastore.t
  | Partial of Hexa.Partial.t

(** Which competitor to build. *)
type kind =
  | K_hexastore
  | K_covp1
  | K_covp2

val all_kinds : kind list
(** In presentation order: Hexastore, COVP1, COVP2. *)

val kind_name : kind -> string

val create : ?dict:Dict.Term_dict.t -> kind -> t
(** Stores built over a shared dictionary agree on ids, which the answer
    cross-checks rely on. *)

val pso : t -> Hexa.Index.t
(** The per-property subject tables, which every competitor keeps and
    §5.2's plans read directly.
    @raise Invalid_argument for a partial store without [pso]. *)

val pos : t -> Hexa.Index.t option
(** The per-property object tables: kept by the Hexastore and COVP2,
    not by COVP1. *)

val boxed : t -> Hexa.Store_sig.boxed
(** For running the generic query engine over a competitor; the
    functions below go through it. *)

val name : t -> string
(** {!kind_name} of the kind it was created as. *)

val dict : t -> Dict.Term_dict.t

val size : t -> int

val load : t -> Dict.Term_dict.id_triple array -> int
(** Bulk load; returns the number of new triples. *)

val memory_words : t -> int
