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

  val add_ids : t -> Dict.Term_dict.id_triple -> bool

  val add_bulk_ids : t -> Dict.Term_dict.id_triple array -> int

  val lookup : t -> Pattern.t -> Dict.Term_dict.id_triple Seq.t

  val count : t -> Pattern.t -> int
  (** Exact cardinality of [lookup t pat]; may cost a scan on shapes the
      store has no index for. *)

  val scan_sorted : t -> Pattern.t -> Pattern.position -> (Ordering.t * (int -> Dict.Term_dict.id_triple Seq.t)) option
  (** Seekable sorted scan of a constants-only pattern keyed on one free
      position (see {!Hexastore.scan_sorted}): [seek k] streams matches
      whose value at the position is [>= k], ascending on that value.
      [None] when the store cannot serve the matches in that order — the
      planner then falls back to hash or nested-loop joins.  A Hexastore
      always serves it; the COVP baselines and the partial store never
      do; a delta layer merges its buffers into the base's scan. *)

  val scan_split :
    t -> Pattern.t -> Pattern.position -> parts:int ->
    (Ordering.t * Dict.Term_dict.id_triple Seq.t array) option
  (** [scan_sorted] partitioned into up to [parts] contiguous ranges
      whose in-order concatenation reproduces the unsplit stream exactly
      (see {!Hexastore.scan_split}); every seek runs eagerly during the
      call, so the ranges are safe to force from distinct domains.
      [None] when the store cannot split — the executor then runs the
      scan sequentially. *)

  val pin : t -> (t * (unit -> unit)) option
  (** Snapshot isolation hook: [Some (view, unpin)] when the store
      distinguishes a stable read view from its live, writer-mutated
      self (see {!Delta.pin}); [None] for stores whose reads are already
      stable under the one-writer protocol. *)

  val repr_name : t -> string
  (** Effective index representation right now ("raw" or "packed"; see
      {!Hexastore.repr_name}).  Baseline stores are always "raw". *)

  val memory_words : t -> int
end

module Hexastore_store : S with type t = Hexastore.t

module Covp1_store : S with type t = Covp.t

module Covp2_store : S with type t = Covp.t

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

val box_covp : Covp.t -> boxed
(** Picks the COVP1 or COVP2 vtable from {!Covp.kind}. *)

(** Convenience wrappers dispatching through the box. *)

val name : boxed -> string
val dict : boxed -> Dict.Term_dict.t
val size : boxed -> int
val add_ids : boxed -> Dict.Term_dict.id_triple -> bool
val add_bulk_ids : boxed -> Dict.Term_dict.id_triple array -> int
val lookup : boxed -> Pattern.t -> Dict.Term_dict.id_triple Seq.t
val count : boxed -> Pattern.t -> int

val scan_sorted :
  boxed -> Pattern.t -> Pattern.position -> (Ordering.t * (int -> Dict.Term_dict.id_triple Seq.t)) option

val scan_split :
  boxed -> Pattern.t -> Pattern.position -> parts:int ->
  (Ordering.t * Dict.Term_dict.id_triple Seq.t array) option

val pin : boxed -> boxed * (unit -> unit)
(** [pin b] is [(view, unpin)]: a stable read view of [b] plus its
    release.  For stores without a pinning protocol the view is [b]
    itself and [unpin] a no-op, so callers can pin unconditionally. *)

val repr_name : boxed -> string

val memory_words : boxed -> int

val add_triple : boxed -> Rdf.Triple.t -> bool
(** Encode through the box's dictionary, then insert. *)

val load_triples : boxed -> Rdf.Triple.t list -> int
(** Bulk-encode and bulk-load; returns the number of new triples. *)

val find : boxed -> ?s:Rdf.Term.t -> ?p:Rdf.Term.t -> ?o:Rdf.Term.t -> unit -> Rdf.Triple.t Seq.t
(** Term-level pattern lookup; unknown terms yield the empty sequence. *)
