(** Greedy selectivity-based join ordering for basic graph patterns,
    plus per-step join-strategy selection.

    The Hexastore answers any pattern shape with exact cardinalities in
    O(log) time ({!Hexa.Hexastore.count}), which makes the textbook greedy
    strategy effective: repeatedly pick the remaining triple pattern with
    the smallest estimated result, preferring patterns that share an
    already-bound variable (so every step is a join, not a product).

    Each picked step also carries {e how} it will join with the bindings
    accumulated so far (§4.2's claim that sorted vectors make pairwise
    joins fast merge-joins):

    - {!Merge_join} when the accumulated bindings stream sorted on the
      single shared variable (all step operators preserve the first
      scan's order) {e and} the store can serve the pattern's matches
      sorted on that variable's position ({!Hexa.Store_sig.seek_sorted}).
      A Hexastore — and a delta view over one — always can; the COVP
      baselines never can.
    - {!Hash_join} when variables are shared but the sorted-merge
      conditions fail and the pattern's independent cardinality is small
      enough to buffer.
    - {!Nested_loop} otherwise (disconnected patterns, oversized build
      sides, unknown constants).

    {!plan} records what the strategy decided — the chosen order, the
    cardinality estimates it compared, the index each lookup resolves to
    and the join strategy — both as the returned {!choice} list (which
    EXPLAIN renders) and, when telemetry is enabled, as
    [query.planner.*] counters. *)

val estimate : Hexa.Store_sig.boxed -> Algebra.tp -> int
(** Upper-bound cardinality of a pattern evaluated with no bindings:
    constants resolve through the dictionary (an unknown constant gives
    0), variables are wildcards. *)

(** How a planned step joins with the bindings accumulated before it. *)
type strategy =
  | Scan  (** first step: plain index scan, no join *)
  | Nested_loop
      (** per-binding index probe of the refined pattern (also the
          deliberate fallback for disconnected patterns) *)
  | Merge_join of {
      var : string;  (** the single shared (join) variable *)
      pos : Hexa.Pattern.position;  (** where [var] sits in the pattern *)
    }  (** both sides sorted on [var]: leapfrog with galloping seeks *)
  | Hash_join of { vars : string list (** shared variables, the key *) }
      (** buffer the pattern's independent matches keyed on the shared
          variables, probe per binding *)

(** Fan-out hint on a BGP's driving scan: the executor splits the scan
    into [par_parts] contiguous ranges on the value at [par_pos]
    ({!Hexa.Store_sig.scan_bounds}) and runs the downstream pipeline per
    range, each on its own sorted cursor, on the {!Par} domain pool, concatenating the per-range runs in
    order.  Planned only when {!Par.domains}[ () > 1], the estimate
    clears {!parallel_min_rows}, and the store can serve a sorted scan
    on the pattern's first free variable. *)
type par_hint = {
  par_parts : int;
  par_pos : Hexa.Pattern.position;
}

(** One planned scan, in execution order. *)
type choice = {
  tp : Algebra.tp;
  estimate : int;       (** {!estimate} at planning time *)
  selectivity : float;  (** estimate / store size (0 on an empty store) *)
  index : Hexa.Ordering.t;
      (** the ordering serving the step: the sorted scan's ordering for a
          merge join, the refined pattern's serving ordering otherwise *)
  strategy : strategy;
  par : par_hint option;  (** set only on the first (driving-scan) step *)
  compiled : Compile.tp;  (** [tp] with its slots and resolved constants *)
}

val nested_loop_only : bool ref
(** When set, every join strategy degrades to {!Nested_loop} (first step
    stays {!Scan}).  The ablation switch behind the join benchmark and
    the merge/hash ≡ nested-loop equivalence properties. *)

val parallel_min_rows : int ref
(** Smallest driving-scan estimate the planner will fan out; below it
    the handoff overhead dominates.  Tests and the bench's speedup arms
    lower it to force parallel plans on small fixtures. *)

val hash_build_limit : int
(** Largest independent right-side estimate a {!Hash_join} will buffer. *)

val strategy_code : strategy -> int
(** 0 scan, 1 nested loop, 2 merge, 3 hash: the code a
    [Telemetry.Trace.Plan_choice] records per step. *)

val strategy_name : strategy -> string
(** ["scan"], ["nested-loop"], ["merge"] or ["hash"]
    ([Telemetry.Trace.step_names] of its code). *)

val pp_strategy : Format.formatter -> strategy -> unit
(** Compact form with join variables: [merge(?x)], [hash(?x,?y)]. *)

val plan : Hexa.Store_sig.boxed -> Algebra.tp list -> choice list
(** Execution order for the patterns of a BGP, with the evidence behind
    each pick.  Deterministic: ties break on the original position.
    Compiles the patterns on their own ({!Compile.bgp}) and plans them. *)

val plan_compiled : Hexa.Store_sig.boxed -> Compile.tp list -> choice list
(** [plan] over patterns the query compiler already resolved: the
    executor's entry, so no constant is looked up twice. *)

val extend : int list -> Compile.tp -> int list
(** A set of bound slots plus a pattern's slots. *)

val sorted_slot : Hexa.Store_sig.boxed -> choice list -> int option
(** The slot a planned BGP's rows arrive sorted on: the first free
    variable of the driving scan, which every later step keeps in order.
    [None] unless the store serves that scan sorted
    ({!Hexa.Store_sig.seek_sorted}), the proof that its reads stream in
    the ordering's order. *)

val order_bgp : Hexa.Store_sig.boxed -> Algebra.tp list -> Algebra.tp list
(** [plan] without the evidence. *)

val pp_choice : Format.formatter -> choice -> unit
