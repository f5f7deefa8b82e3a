(** Source lint for the [lib/] tree, run as [dune build @lint].

    Rules, all gate-style (any finding fails the build):

    - {b missing-mli}: every [.ml] in a library directory must have a
      matching [.mli] — an unconstrained module leaks representation and
      invites invariant-breaking access.
    - {b obj-magic}: no [Obj.magic] in library code.
    - {b printf-in-lib}: no [Printf.printf]/[Format.printf]/
      [print_endline] writing to stdout from library code; libraries
      report through values or formatters the caller supplies.
    - {b catch-all}: no [with _ ->] handlers — swallowing every exception
      (including [Out_of_memory] and [Assert_failure]) hides the very
      corruption the {!Invariant} layer exists to surface.
    - {b raw-clock}: no direct [Unix.gettimeofday] or [Sys.time] in
      library code; time flows through [Telemetry.Clock] so tests and
      EXPLAIN ANALYZE can inject a deterministic source.  Files under a
      [telemetry] directory are exempt — that is where the clock is
      wrapped.
    - {b query-probe}: no direct [Sorted_ivec.mem] in files under a
      [query] directory — a point-probe membership test there bypasses
      the planner's merge/hash join operators.  A deliberate probe is
      waived by putting [lint: allow query-probe] in a {e comment} on
      the same line or the line directly above.
    - {b span-hygiene}: no manual [Trace.enter_span]/[Trace.exit_span]
      pairs in library code — an exception between the two leaks an open
      span and skews every enclosing depth; [Trace.with_span] closes on
      every exit path.  Files under a [telemetry] directory are exempt
      (the handle API lives there); a deliberate resource-lifetime span
      is waived with [lint: allow span-hygiene] in a comment on the same
      line or the line directly above.
    - {b domain-unsafe-global}: every module-global mutable binding in a
      [.ml] file (see {!Mutability}) must carry a
      [(* domain-safety: <class> — <reason> *)] attestation on its line
      or the line directly above, with a known class and a non-empty
      reason.  This is the gate the ROADMAP concurrency item consumes:
      un-attested shared mutable state cannot reach a multi-domain
      executor unnoticed.
    - {b repr-abstraction}: no mention of the compressed codec module
      ([Packed_ivec]) outside a [vectors] directory —
      every other layer reads compressed data through the
      [Sorted_ivec] stream/slice API, which is what lets a
      representation swap leave planner, executor and snapshots
      untouched.  Waived with [lint: allow repr-abstraction] in a
      comment on the same line or the line directly above.

    All content rules run over the {!Lexer} token stream, so comment and
    string contexts are exact: a pattern inside a string literal or
    comment never fires, and a waiver/attestation marker only counts
    when it sits inside a comment token (PR 1's substring scanner
    accepted waivers smuggled in string literals).  Violation positions
    come straight from token line numbers — no per-violation rescan.

    When telemetry is enabled the scan bumps [check.lint.files],
    [check.lint.tokens] and [check.lint.violations.<rule>] counters in
    the shared {!Telemetry.Metrics} registry. *)

type rule =
  | Missing_mli
  | Obj_magic
  | Printf_in_lib
  | Catch_all
  | Raw_clock
  | Query_probe
  | Span_hygiene
  | Domain_unsafe_global
  | Repr_abstraction

val rule_name : rule -> string

val scan_source : path:string -> string -> Violation.t list
(** Content rules against one file's text, sorted by line.  [path]
    selects the scoped rules ([raw-clock] exemption, [query-probe]
    scope, [domain-unsafe-global] on [.ml] only) and is used for
    reporting. *)

val scan_dir : string -> Violation.t list
(** Walk a directory tree (skipping dot- and underscore-prefixed
    entries), apply {!scan_source} to every [.ml] and [.mli], and report
    {!Missing_mli} for every [.ml] lacking a sibling [.mli]. *)
