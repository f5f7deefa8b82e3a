(** Query evaluation over any {!Hexa.Store_sig.boxed} store.

    A query runs in three steps.  {!Compile} gives each variable a
    column slot and resolves each constant to its dictionary id once;
    {!Planner.plan_compiled} orders every BGP; then the operators push
    solutions as unboxed [int array] rows, one cell per slot (encoding
    in {!Binding}), from operator to operator.  An operator binds the
    slots it adds in place and restores them after passing the row on,
    so rows are copied only where they are kept: the right side of a
    join, DISTINCT's seen set, ORDER BY's input and the final result.

    BGPs run as a chain of join steps, one per planned pattern, under
    the strategy the planner picked: merge joins gallop the store's
    sorted cursor ({!Hexa.Store_sig.seek_sorted}) along the rows' sort
    order; hash joins buffer a small pattern's matches keyed on the
    shared slots; nested-loop steps probe the store once per row.
    Every step keeps its input's order, which is what keeps the merge
    strategy sound downstream of the first scan.  Executed steps are
    tallied in the [query.join.merge]/[query.join.hash]/
    [query.join.nested] counters.

    Algebra [Join] and [Left_join] build their right side once and
    probe it per left row: a merge join when both sides arrive sorted on
    a slot they always bind, a hash join on the slots both always bind
    otherwise, and a nested loop only when no slot is surely shared.
    Decoding to terms is left to {!Results}. *)

val query_label : Algebra.t -> string
(** Compact flight-recorder label: the root operator plus total pattern
    count, e.g. ["project/2tp"].  The blocking entry points below
    bracket themselves with [Trace.Query_start]/[Query_end] under this
    label (a crash therefore shows as an unmatched start in the dump). *)

val run : Hexa.Store_sig.boxed -> Algebra.t -> Binding.t list

val ask : Hexa.Store_sig.boxed -> Algebra.t -> bool
(** True iff the query has at least one solution. *)

val count : Hexa.Store_sig.boxed -> Algebra.t -> int

val construct :
  Hexa.Store_sig.boxed -> template:Algebra.tp list -> Algebra.t -> Rdf.Triple.t list
(** Instantiate a CONSTRUCT template once per solution.  Instantiations
    with an unbound variable, a literal subject or a non-IRI predicate
    are skipped (standard CONSTRUCT semantics); the result is sorted and
    de-duplicated. *)

(** {1 EXPLAIN}

    A typed plan tree mirroring the algebra, annotated with what the
    planner decided (estimates, selectivities, serving index per BGP
    scan) and — under [~analyze:true] — with observed behaviour. *)

type explain_node = {
  op : string;            (** operator name, e.g. ["bgp"], ["scan"], ["filter"] *)
  detail : string;        (** operator-specific rendering; [""] when none *)
  estimate : int option;  (** planner cardinality estimate *)
  selectivity : float option;  (** estimate / store size *)
  actual_rows : int option;    (** ANALYZE only: rows the node produces *)
  time_s : float option;
      (** ANALYZE only: cumulative cost of evaluating the node's sub-plan
          (inputs included), read from {!Telemetry.Clock}. *)
  probes : int option;
      (** ANALYZE with telemetry enabled: [hexastore.probe.*] counter
          delta over the node's evaluation — index probes attributed to
          the operator. *)
  gc_words : float option;
      (** ANALYZE with telemetry enabled: GC words allocated
          (minor + major - promoted) over the node's evaluation. *)
  children : explain_node list;
}

val explain : ?analyze:bool -> Hexa.Store_sig.boxed -> Algebra.t -> explain_node
(** Plan a query and report the evidence.  With [~analyze:true] (default
    false) each node's sub-plan — and, inside a BGP, each plan prefix —
    is also evaluated to record actual cardinalities and timings; BGP
    scan rows are therefore consistent with {!count} on the prefix. *)

val pp_explain : Format.formatter -> explain_node -> unit
(** Tree rendering with box-drawing connectors, one node per line. *)

val explain_to_json : explain_node -> Telemetry.Json.t
