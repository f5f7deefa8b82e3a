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

module Hexastore_store : S with type t = Hexastore.t = struct
  type t = Hexastore.t

  let name _ = "Hexastore"
  let dict = Hexastore.dict
  let size = Hexastore.size
  let add_bulk_ids = Hexastore.add_bulk_ids
  let iter = Hexastore.iter
  let count = Hexastore.count
  let seek_sorted = Hexastore.seek_sorted
  let seek_ordering _ = Hexastore.serving_ordering
  let scan_bounds = Hexastore.scan_bounds

  (* Queries never mutate, so with one writer paused there is nothing to
     isolate from: the live store is its own stable view. *)
  let pin _ = None
  let repr_name = Hexastore.repr_name
  let memory_words = Hexastore.memory_words
end

module Partial_store : S with type t = Partial.t = struct
  type t = Partial.t

  (* §5's names for the two subsets it benchmarks. *)
  let name t =
    match Ordering.Set.elements (Partial.orderings t) with
    | [ Ordering.Pso ] -> "COVP1"
    | [ Ordering.Pso; Ordering.Pos ] -> "COVP2"
    | _ -> "Partial"

  let dict = Partial.dict
  let size = Partial.size
  let add_bulk_ids = Partial.add_bulk_ids
  let iter = Partial.iter
  let count = Partial.count

  (* A partial store may be missing the ordering a sorted scan needs;
     stay conservative and let the planner fall back. *)
  let seek_sorted _ _ _ = None
  let seek_ordering _ _ _ = None
  let scan_bounds _ _ _ ~parts:_ = [||]
  let pin _ = None
  let repr_name _ = "raw"
  let memory_words = Partial.memory_words
end

module Delta_store : S with type t = Delta.t = struct
  type t = Delta.t

  let name _ = "Hexastore+delta"
  let dict = Delta.dict
  let size = Delta.size
  let add_bulk_ids = Delta.add_bulk_ids
  let iter = Delta.iter
  let count = Delta.count
  let seek_sorted = Delta.seek_sorted
  let seek_ordering _ = Hexastore.serving_ordering
  let scan_bounds = Delta.scan_bounds
  let pin d = Some (Delta.pin d)
  let repr_name d = Hexastore.repr_name (Delta.base d)
  let memory_words = Delta.memory_words
end

type boxed = Boxed : (module S with type t = 'a) * 'a -> boxed

let box_hexastore h = Boxed ((module Hexastore_store), h)

let box_delta d = Boxed ((module Delta_store), d)

let box_partial p = Boxed ((module Partial_store), p)

let name (Boxed ((module M), store)) = M.name store
let dict (Boxed ((module M), store)) = M.dict store
let size (Boxed ((module M), store)) = M.size store
let add_bulk_ids (Boxed ((module M), store)) trs = M.add_bulk_ids store trs
let iter (Boxed ((module M), store)) pat f = M.iter store pat f
let count (Boxed ((module M), store)) pat = M.count store pat
let seek_sorted (Boxed ((module M), store)) pat pos = M.seek_sorted store pat pos
let seek_ordering (Boxed ((module M), store)) pat pos = M.seek_ordering store pat pos
let scan_bounds (Boxed ((module M), store)) pat pos ~parts = M.scan_bounds store pat pos ~parts

let pin (Boxed ((module M), store) as b) =
  match M.pin store with
  | None -> (b, fun () -> ())
  | Some (view, unpin) -> (Boxed ((module M), view), unpin)

let repr_name (Boxed ((module M), store)) = M.repr_name store
let memory_words (Boxed ((module M), store)) = M.memory_words store
