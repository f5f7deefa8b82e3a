(** The common store interface.

    The query engine, the harness and parts of the test suite are generic
    over "something that can answer triple patterns".  The Hexastore and
    both COVP baselines implement this signature; first-class modules
    ({!boxed}) let callers hold a heterogeneous store without functorising
    the world. *)

module type S = sig
  type t

  val name : string
  (** Display name ("Hexastore", "COVP1", "COVP2"). *)

  val dict : t -> Dict.Term_dict.t

  val size : t -> int

  val add_bulk_ids : t -> Dict.Term_dict.id_triple array -> int

  val lookup : t -> Pattern.t -> Dict.Term_dict.id_triple Seq.t

  val iter : t -> Pattern.t -> (int -> int -> int -> unit) -> unit
  (** [lookup] pushed: [f s p o] per match, in [lookup]'s order. *)

  val count : t -> Pattern.t -> int
  (** Exact cardinality of [lookup t pat]; may cost a scan on shapes the
      store has no index for. *)

  val scan_sorted : t -> Pattern.t -> Pattern.position -> (Ordering.t * (int -> Dict.Term_dict.id_triple Seq.t)) option
  (** Seekable sorted scan of a constants-only pattern keyed on one free
      position (see {!Hexastore.scan_sorted}).  [None] when the store
      cannot stream the matches sorted on that position — the planner
      then falls back to hash or nested-loop joins. *)

  val seek_sorted :
    t -> Pattern.t -> Pattern.position ->
    (Ordering.t * (int -> (int -> int -> int -> unit) -> unit)) option
  (** [scan_sorted] as a push cursor: [run k f] calls [f s p o] for the
      matches whose value at the position is [k] (see
      {!Hexastore.seek_sorted}).  Served exactly when [scan_sorted] is. *)

  val scan_split :
    t -> Pattern.t -> Pattern.position -> parts:int ->
    (Ordering.t * Dict.Term_dict.id_triple Seq.t array) option
  (** [scan_sorted] partitioned into up to [parts] contiguous ranges
      whose in-order concatenation reproduces the unsplit stream exactly
      (see {!Hexastore.scan_split}).  [None] when the store cannot split
      — the executor then runs the scan sequentially. *)

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

  let name = "Hexastore"
  let dict = Hexastore.dict
  let size = Hexastore.size
  let add_bulk_ids = Hexastore.add_bulk_ids
  let lookup = Hexastore.lookup
  let iter = Hexastore.iter
  let count = Hexastore.count
  let scan_sorted = Hexastore.scan_sorted
  let seek_sorted = Hexastore.seek_sorted
  let scan_split = Hexastore.scan_split

  (* Queries never mutate, so with one writer paused there is nothing to
     isolate from: the live store is its own stable view. *)
  let pin _ = None
  let repr_name = Hexastore.repr_name
  let memory_words = Hexastore.memory_words
end

module Covp1_store : S with type t = Covp.t = struct
  type t = Covp.t

  let name = "COVP1"
  let dict = Covp.dict
  let size = Covp.size
  let add_bulk_ids = Covp.add_bulk_ids
  let lookup = Covp.lookup
  let iter = Covp.iter
  let count = Covp.count

  (* The COVP baselines keep only per-property tables; they cannot
     stream an arbitrary pattern sorted on a chosen position. *)
  let scan_sorted _ _ _ = None
  let seek_sorted _ _ _ = None
  let scan_split _ _ _ ~parts:_ = None
  let pin _ = None
  let repr_name _ = "raw"
  let memory_words = Covp.memory_words
end

module Covp2_store : S with type t = Covp.t = struct
  include Covp1_store

  let name = "COVP2"
end

module Partial_store : S with type t = Partial.t = struct
  type t = Partial.t

  let name = "Partial"
  let dict = Partial.dict
  let size = Partial.size
  let add_bulk_ids = Partial.add_bulk_ids
  let lookup = Partial.lookup
  let iter = Partial.iter
  let count = Partial.count

  (* A partial store may be missing the ordering a sorted scan needs;
     stay conservative and let the planner fall back. *)
  let scan_sorted _ _ _ = None
  let seek_sorted _ _ _ = None
  let scan_split _ _ _ ~parts:_ = None
  let pin _ = None
  let repr_name _ = "raw"
  let memory_words = Partial.memory_words
end

module Delta_store : S with type t = Delta.t = struct
  type t = Delta.t

  let name = "Hexastore+delta"
  let dict = Delta.dict
  let size = Delta.size
  let add_bulk_ids = Delta.add_bulk_ids
  let lookup = Delta.lookup
  let iter = Delta.iter
  let count = Delta.count
  let scan_sorted = Delta.scan_sorted
  let seek_sorted = Delta.seek_sorted
  let scan_split = Delta.scan_split
  let pin d = Some (Delta.pin d)
  let repr_name d = Hexastore.repr_name (Delta.base d)
  let memory_words = Delta.memory_words
end

type boxed = Boxed : (module S with type t = 'a) * 'a -> boxed

let box_hexastore h = Boxed ((module Hexastore_store), h)

let box_delta d = Boxed ((module Delta_store), d)

let box_partial p = Boxed ((module Partial_store), p)

let box_covp c =
  match Covp.kind c with
  | Covp.Covp1 -> Boxed ((module Covp1_store), c)
  | Covp.Covp2 -> Boxed ((module Covp2_store), c)

let name (Boxed ((module M), _)) = M.name
let dict (Boxed ((module M), store)) = M.dict store
let size (Boxed ((module M), store)) = M.size store
let add_bulk_ids (Boxed ((module M), store)) trs = M.add_bulk_ids store trs
let lookup (Boxed ((module M), store)) pat = M.lookup store pat
let iter (Boxed ((module M), store)) pat f = M.iter store pat f
let count (Boxed ((module M), store)) pat = M.count store pat
let scan_sorted (Boxed ((module M), store)) pat pos = M.scan_sorted store pat pos
let seek_sorted (Boxed ((module M), store)) pat pos = M.seek_sorted store pat pos
let scan_split (Boxed ((module M), store)) pat pos ~parts = M.scan_split store pat pos ~parts

let pin (Boxed ((module M), store) as b) =
  match M.pin store with
  | None -> (b, fun () -> ())
  | Some (view, unpin) -> (Boxed ((module M), view), unpin)

let repr_name (Boxed ((module M), store)) = M.repr_name store
let memory_words (Boxed ((module M), store)) = M.memory_words store

let load_triples b triples =
  let ids = Array.of_list (List.map (Dict.Term_dict.encode_triple (dict b)) triples) in
  add_bulk_ids b ids

let find b ?s ?p ?o () =
  let d = dict b in
  let resolve = function
    | None -> Some None
    | Some term -> (
        match Dict.Term_dict.find_term d term with None -> None | Some id -> Some (Some id))
  in
  match (resolve s, resolve p, resolve o) with
  | Some s, Some p, Some o ->
      Seq.map (Dict.Term_dict.decode_triple d) (lookup b { Pattern.s; p; o })
  | _ -> Seq.empty
