(** Merge-join kernels over sorted integer sequences.

    §4.2 of the paper rests on the claim that "all first-step pairwise joins
    are fast merge-joins" because every Hexastore vector and list is sorted.
    This module is where those joins actually live: linear-time
    intersection, union and difference of {!Sorted_ivec.t} operands, k-way
    variants for the COVP baselines (which must union across many property
    tables), and a galloping intersection for very asymmetric operand
    sizes. *)

val intersect : Sorted_ivec.t -> Sorted_ivec.t -> Sorted_ivec.t
(** Linear-time merge intersection of two sorted vectors. *)

val intersect_arrays : int array -> int array -> int array
(** Same, over plain sorted arrays (both strictly increasing). *)

val intersect_count : Sorted_ivec.t -> Sorted_ivec.t -> int
(** Size of the intersection without materialising it. *)

val intersect_gallop : Sorted_ivec.t -> Sorted_ivec.t -> Sorted_ivec.t
(** Intersection by galloping (exponential) search from the smaller operand
    into the larger one; O(|small| · log |large|).  Used by the join
    ablation bench and by the executor when operand sizes are skewed. *)

val intersect_count_adaptive : Sorted_ivec.t -> Sorted_ivec.t -> int
(** Like {!intersect_count}, but gallops from the smaller operand when
    the size ratio is large — O(|small| · log |large|) instead of
    O(|small| + |large|).  The kernel behind per-object counting in
    skewed aggregations (BQ3/BQ4's "popular objects"). *)

val union : Sorted_ivec.t -> Sorted_ivec.t -> Sorted_ivec.t

val union_many : Sorted_ivec.t list -> Sorted_ivec.t
(** k-way union via a tournament of pairwise merges.  The COVP baselines
    use this to combine per-property results. *)

val diff : Sorted_ivec.t -> Sorted_ivec.t -> Sorted_ivec.t
(** [diff a b] keeps elements of [a] not in [b]. *)

val merge_join : (int -> unit) -> Sorted_ivec.t -> Sorted_ivec.t -> unit
(** [merge_join f a b] calls [f] on every common element, in order,
    without materialising the intersection. *)

val merge_join_gallop : (int -> unit) -> Sorted_ivec.t -> Sorted_ivec.t -> unit
(** Skip-aware variant of {!merge_join}: whichever operand is behind
    gallops ({!Sorted_ivec.search_from}) to the other's current value,
    so long mismatching runs cost O(log run) rather than O(run).  Same
    callback contract as {!merge_join}. *)

val is_strictly_ascending : int Seq.t -> bool

val of_unsorted : int list -> Sorted_ivec.t
(** Sort-and-dedup a list of ids — the "sort" half of the sort-merge joins
    the COVP1 baseline is forced into (§5.2, BQ5). *)
