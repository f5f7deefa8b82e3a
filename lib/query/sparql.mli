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
    (see {!Ppath} for the §4.3 evaluator), subqueries, and expressions
    beyond the [FILTER] operators above.

    The parser reads the text in one pass: a recursive descent that
    pulls tokens from a cursor over the text with one token of
    lookahead.  Keywords are matched in any case where they stand, an
    IRI is cut and checked at once ([Rdf.Term.cut_iri]), and only a
    string holding an escape, or an IRI that cut refuses, is read
    again.  The prefix table is copied only when a [PREFIX] binds a
    name.

    ["\r\n"], ["\n"] and a lone ["\r"] each end one line, in blanks
    and in [#] comments; a line end inside a string is not counted. *)

exception Parse_error of int * string
(** Line-numbered syntax error (1-based).  A character the scanner
    refuses is the error wherever it stands, before any error the
    parser found earlier in the text. *)

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
