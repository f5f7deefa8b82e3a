(** Workload-driven index selection (the research direction of §6).

    Given a workload — pattern shapes with frequencies — the advisor
    determines which of the six orderings those shapes use natively,
    recommends the subset worth materialising, and estimates the memory
    a {!Partial} store over that subset would save relative to the full
    Hexastore. *)

type workload = (Pattern.shape * int) list
(** Shape frequencies; order and duplicate shapes are tolerated. *)

val workload_of_patterns : Pattern.t list -> workload
(** Tally a list of observed patterns into a workload. *)

val orderings_used : workload -> Ordering.Set.t
(** The native ordering of each shape appearing with positive
    frequency. *)

(** A recommendation. *)
type recommendation = {
  keep : Ordering.t list;          (** orderings to materialise, sorted *)
  drop : Ordering.t list;          (** the complement *)
  native_fraction : float;         (** workload fraction served natively *)
}

val recommend : workload -> recommendation
(** Keep exactly the orderings the workload touches (never empty — [spo]
    is kept as the data holder for an empty workload).  Shapes [All] and
    [Sp] count as native whenever either twin of the o-list family is
    kept. *)

val estimate_memory_words : Hexastore.t -> Ordering.t list -> int
(** Structural words a {!Partial} store keeping exactly these orderings
    would use for this store's data: each kept family's owner, which
    holds its terminal stream once, plus its twin when kept.  A header
    level counts where the Hexastore builds it, so a subset that keeps
    an adopting sibling without the sibling that built the level is
    estimated a level short. *)

val savings_fraction : Hexastore.t -> Ordering.t list -> float
(** [1 - estimate/full]; 0 when everything is kept. *)

val pp_recommendation : Format.formatter -> recommendation -> unit
