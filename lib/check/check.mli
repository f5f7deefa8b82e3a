(** Correctness tooling for the Hexastore.

    Three instruments over the paper's structural invariants (§4/§4.1):

    - {!Invariant} — per-layer validators returning typed
      {!Violation.t} lists; {!store} is the whole-store entry point.
    - {!Model}/{!Diff} — a naive reference store and a differential
      model-checker that executes random operation sequences against it
      and the real store, shrinking any disagreement to a minimal
      counterexample.
    - {!Reference} — a naive evaluator for the whole query algebra over
      a {!Model}, the oracle the executor's differential property is
      checked against.
    - {!Concurrent} — the concurrency harness: parallel ≡ sequential
      differential execution and the writer-vs-readers delta stress
      runner behind [dune build @stress].
    - {!Lexer}/{!Mutability}/{!Lint} — the static-analysis pass behind
      [dune build @lint]: a positioned OCaml tokenizer, the
      mutable-state inventory backing [DOMAIN_SAFETY.md], and the rule
      engine (including the [domain-unsafe-global] attestation gate). *)

module Violation = Violation
module Invariant = Invariant
module Model = Model
module Diff = Diff
module Reference = Reference
module Concurrent = Concurrent
module Lexer = Lexer
module Mutability = Mutability
module Lint = Lint

val store : Hexa.Hexastore.t -> Violation.t list
(** [store h] is {!Invariant.store}[ h]: the complete invariant check —
    sortedness, six-way agreement, physical terminal-list sharing,
    accounting, dictionary bijectivity.  Empty list = healthy store. *)

val delta : Hexa.Delta.t -> Violation.t list
(** [delta d] is {!Invariant.delta}[ d]: the base's full {!store} check
    plus the delta coherence rules (buffers disjoint from base and each
    other, tombstones subset of base, merged view equal to a flushed
    clone).  Empty list = healthy delta-fronted store. *)
