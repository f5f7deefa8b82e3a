(** Typed invariant-violation reports.

    Every validator in {!Invariant} (and the source scanner in {!Lint})
    returns a list of these instead of asserting, so callers can report
    all problems at once, count them, or render them for humans.  An empty
    list means the checked structure satisfies its invariants. *)

(** Which layer of the system the violated invariant belongs to. *)
type layer =
  | Vector  (** {!Vectors.Sorted_ivec} strict sortedness. *)
  | Index  (** One of the six orderings. *)
  | Store  (** Cross-index Hexastore consistency. *)
  | Delta  (** Delta-layer buffer coherence and merged-view fidelity. *)
  | Dictionary  (** Term/id bijectivity. *)
  | Dataset  (** Named-graph coherence. *)
  | Snapshot  (** Persistence round-trip fidelity. *)
  | Query  (** Query-result divergence (parallel vs sequential, model). *)
  | Source  (** A lint finding in a source file. *)

type t = {
  layer : layer;
  path : string;
      (** Where the violation was found: a structural path like
          ["spo\[12\].vector"], or ["file.ml:37"] for lint findings. *)
  message : string;  (** Human-readable description of what is wrong. *)
}

val v : layer -> path:string -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [v layer ~path fmt ...] builds a violation with a formatted message. *)

val layer_name : layer -> string

val pp : Format.formatter -> t -> unit
(** One line: [layer path: message]. *)

val to_string : t -> string

val pp_report : Format.formatter -> t list -> unit
(** All violations, one per line, with a trailing count; prints
    ["ok (no violations)"] on the empty list. *)
