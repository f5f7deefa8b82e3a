(** The common store interface.

    The query engine, the harness and parts of the test suite are generic
    over "something that can answer triple patterns".  The Hexastore, the
    partial store (the COVP baselines among its configurations) and the
    delta layer implement this signature; first-class modules ({!boxed})
    let callers hold a heterogeneous store without functorising the
    world.

    Reads are pushed, never pulled: a store is read through {!S.iter}
    (every match), {!S.count}, and the sorted range cursor
    {!S.seek_sorted} with {!S.scan_bounds} to carve its scan into
    ranges — the one mechanism behind scans, merge joins and parallel
    fan-out. *)

module type S = sig
  type t

  val name : t -> string
  (** Display name ("Hexastore", "COVP1", "COVP2", "Partial",
      "Hexastore+delta"). *)

  val dict : t -> Dict.Term_dict.t

  val size : t -> int

  val add_bulk_ids : t -> Dict.Term_dict.id_triple array -> int

  val iter : t -> Pattern.t -> (int -> int -> int -> unit) -> unit
  (** [iter t pat f] calls [f s p o] for every match of [pat]. *)

  val count : t -> Pattern.t -> int
  (** Exact number of matches {!iter} pushes; may cost a scan on
      shapes the store has no index for. *)

  val seek_sorted :
    t -> Pattern.t -> Pattern.position ->
    (Ordering.t * (int -> int -> (int -> int -> int -> unit) -> unit)) option
  (** Sorted range cursor over a constants-only pattern keyed on one
      free position (see {!Hexastore.seek_sorted}): [run lo hi f] calls
      [f s p o] for the matches whose value at the position lies in
      [[lo, hi)], ascending on that value.  [None] when the store cannot
      serve the matches in that order — the planner then falls back to
      hash or nested-loop joins and the executor does not split. *)

  val seek_ordering : t -> Pattern.t -> Pattern.position -> Ordering.t option
  (** The ordering {!seek_sorted} would serve from, found without a
      cursor or a probe: [None] exactly when [seek_sorted] is [None]. *)

  val scan_bounds : t -> Pattern.t -> Pattern.position -> parts:int -> int array
  (** Interior boundary keys carving [seek_sorted]'s whole scan into up
      to [parts] contiguous ranges (see {!Hexastore.scan_bounds});
      empty when the store does not serve the scan. *)

  val pin : t -> (t * (unit -> unit)) option
  (** Snapshot isolation hook: [Some (view, unpin)] when the store
      distinguishes a stable read view from its live, writer-mutated
      self (see {!Delta.pin}); [None] for stores whose reads are already
      stable under the one-writer protocol. *)

  val repr_name : t -> string
  (** The codec of the store's index streams, "raw" or "packed".
      Baseline stores are always "raw". *)

  val memory_words : t -> int
end

module Hexastore_store : S with type t = Hexastore.t

module Partial_store : S with type t = Partial.t

module Delta_store : S with type t = Delta.t
(** The write-optimized delta layer: reads serve the merged
    [base ∪ inserts − deletes] view, so the planner and executor work
    over it unchanged. *)

(** A store packed with its operations. *)
type boxed = Boxed : (module S with type t = 'a) * 'a -> boxed

val box_hexastore : Hexastore.t -> boxed

val box_delta : Delta.t -> boxed

val box_partial : Partial.t -> boxed

(** Convenience wrappers dispatching through the box. *)

val name : boxed -> string
val dict : boxed -> Dict.Term_dict.t
val size : boxed -> int
val add_bulk_ids : boxed -> Dict.Term_dict.id_triple array -> int
val iter : boxed -> Pattern.t -> (int -> int -> int -> unit) -> unit
val count : boxed -> Pattern.t -> int

val seek_sorted :
  boxed -> Pattern.t -> Pattern.position ->
  (Ordering.t * (int -> int -> (int -> int -> int -> unit) -> unit)) option

val seek_ordering : boxed -> Pattern.t -> Pattern.position -> Ordering.t option

val scan_bounds : boxed -> Pattern.t -> Pattern.position -> parts:int -> int array

val pin : boxed -> boxed * (unit -> unit)
(** [pin b] is [(view, unpin)]: a stable read view of [b] plus its
    release.  For stores without a pinning protocol the view is [b]
    itself and [unpin] a no-op, so callers can pin unconditionally. *)

val repr_name : boxed -> string

val memory_words : boxed -> int
