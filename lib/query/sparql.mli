(** A SPARQL-subset parser.

    Covers the query forms the examples, CLI and tests use:

    - [PREFIX] / [BASE] prologue;
    - [SELECT] with a variable list, [*], [DISTINCT], and
      COUNT-aggregates bound with AS — count of all rows, of a
      variable's bound occurrences, or of its distinct values;
    - [ASK] and [CONSTRUCT] (template of triple patterns + WHERE);
    - group graph patterns with triple patterns ([;]/[,] lists and [a]
      supported), nested groups, [UNION], [OPTIONAL], and [FILTER] with
      [=, !=, <, <=, >, >=, &&, ||, !, BOUND];
    - [VALUES] inline data (single- and multi-variable forms, [UNDEF]);
    - [GROUP BY], [ORDER BY] (with [ASC]/[DESC]), [LIMIT], [OFFSET].

    Rows of [VALUES] whose terms are unknown to the store's dictionary
    are dropped (they could never join with stored data).

    Not covered: [DESCRIBE], property paths
    (see {!Ppath} for the §4.3 evaluator), subqueries, [VALUES]. *)

exception Parse_error of int * string
(** Line-numbered syntax error (1-based). *)

type query = {
  algebra : Algebra.t;
  projection : string list;
      (** Variables of the result rows, in SELECT order.  For [SELECT *]
          this is every variable of the pattern; for [ASK] it is empty. *)
  is_ask : bool;
  template : Algebra.tp list option;
      (** [Some tps] for CONSTRUCT queries: instantiate with
          {!Exec.construct}. *)
}

val parse : ?namespaces:Rdf.Namespace.table -> string -> query
(** Parse a query.  [namespaces] provides pre-bound prefixes (the query's
    own [PREFIX] directives are added to a copy, not to the caller's
    table). *)
