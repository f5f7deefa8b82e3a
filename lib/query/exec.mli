(** Query evaluation over any {!Hexa.Store_sig.boxed} store.

    BGPs execute as a pipeline of lazily streaming join steps, one per
    planned pattern ({!Planner.plan}), each under the strategy the
    planner picked: merge joins leapfrog the accumulated bindings
    against a store-served sorted scan with galloping seeks
    ({!Hexa.Store_sig.scan_sorted}); hash joins buffer a small pattern's
    matches keyed on the shared variables; nested-loop steps drive a
    pattern lookup in the store's best index per solution.  Every
    operator preserves its left input's order, which is what keeps the
    merge strategy sound downstream of the first scan.  Executed steps
    are tallied in the [query.join.merge]/[query.join.hash]/
    [query.join.nested] counters. *)

val query_label : Algebra.t -> string
(** Compact flight-recorder label: the root operator plus total pattern
    count, e.g. ["project/2tp"].  The blocking entry points below
    bracket themselves with [Trace.Query_start]/[Query_end] under this
    label (a crash therefore shows as an unmatched start in the dump). *)

val run_seq : Hexa.Store_sig.boxed -> Algebra.t -> Binding.t Seq.t
(** Lazy evaluation; blocking operators (group, order) materialise
    internally.  Unlike the blocking entry points, emits no
    flight-recorder events (there is no completion point to record). *)

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

val compare_values : Dict.Term_dict.t -> Binding.value -> Binding.value -> int
(** Value order used by filters and ORDER BY: numbers (aggregate ints and
    numeric literals) compare numerically and sort before other terms,
    which compare by their N-Triples spelling. *)

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
