(** A reference evaluator for the whole query algebra.

    Evaluates every {!Query.Algebra.t} constructor naively over a
    {!Model} (the sorted-list reference store), sharing no code with
    {!Query.Exec}, its compiler, planner or operators.  Solutions are
    sorted association lists, evaluated with bag semantics:

    - a BGP is a backtracking match of each pattern against every
      triple, in the order written; an unknown constant matches nothing;
    - [Join]/[Left_join] pair every left solution with every compatible
      right one (a variable bound on both sides must agree); a left join
      keeps an unmatched left solution as it is;
    - [Filter] drops a solution whose condition is false or an error
      (an unbound variable, a non-term operand);
    - [Order_by] sorts stably with unbound first, numbers (aggregate
      integers and numeric literals) before other terms, which compare
      by their N-Triples spelling.

    The differential property in [test_query] runs random algebra trees
    through the executor on every store kind and compares the answers
    with this one. *)

type solution = (string * Query.Binding.value) list
(** Bound variables in ascending order. *)

val eval : Dict.Term_dict.t -> Model.t -> Query.Algebra.t -> solution list
