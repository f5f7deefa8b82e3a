(** The recorder: spans and typed events on one bounded ring per domain.

    A span is one timed region — a query operator, a bulk load, a
    benchmark body — named, clocked through the injectable {!Clock} (so
    a deterministic source gives deterministic traces), and recorded
    with its nesting depth, a process-unique id, its parent span (if
    any) and the domain it completed on.  An event is a zero-duration
    entry — a query boundary, a plan choice, a delta flush, snapshot IO,
    a slow query — parented under the innermost span open on its
    domain, so with tracing on the events of a query land inside its
    span tree.

    Both go through one recording path: each domain records into its
    own ring shard of {!capacity} entries (allocated on first use),
    keeping the newest entries; an overwrite counts as a drop.  Dumps
    merge the shards by a global sequence number.  A ring is
    preallocated columns of ints, unboxed floats and names: recording
    an entry writes words into them and keeps no block of its own
    (only a {!Slow_query} is kept whole), and {!dump} rebuilds the
    entries.

    Gating: spans are recorded only while [Telemetry.enabled] is on —
    off, {!with_span} is exactly the wrapped call: one flag read,
    nothing recorded, nothing allocated.  Events are always recorded
    (the flight recorder) and never touch [Config.note_activity].
    {!set_capacity}[ 0] records nothing at all.

    Nesting is tracked per domain (domain-local storage), so spans on
    concurrent domains do not entangle.  A span opened inside a pool
    task can be attached to the submitting query's span by passing that
    span's handle as [?parent] — the explicit cross-domain edge the
    Chrome-trace export renders as per-domain lanes under one query. *)

(** A per-query profile: wall time, GC words and the non-zero registry
    counter movements between two [Profile.snapshot]s.  Defined here
    because a {!Slow_query} entry carries one. *)
type delta = {
  wall_s : float;
  alloc_minor_words : float;
  alloc_major_words : float;
  alloc_words : float;  (** minor + major - promoted: total words allocated *)
  counters : (string * int) list;  (** non-zero deltas, name-sorted *)
}

type kind =
  | Span of string  (** a timed region, by name *)
  | Query_start of {
      op : string;  (** root algebra operator, e.g. ["project"] *)
      patterns : int;  (** triple patterns in the whole query *)
    }
  | Query_end of {
      op : string;
      patterns : int;
      rows : int;
    }
  | Plan_choice of {
      patterns : int;  (** patterns in the planned BGP *)
      steps : int;
          (** per-step join strategies, two bits per step, the first
              step lowest: step [i] is [step_names.((steps lsr (2 * i))
              land 3)].  Only the first {!max_plan_steps} are kept.
              Rendered, e.g. ["scan;merge"], only when the entry is
              printed or exported. *)
    }
  | Delta_flush of {
      pending : int;
      rebuild : bool;  (** a compaction's full rebuild, not an in-place flush *)
      auto : bool;
      migrate : bool;
          (** the level moved into the base; [false]: the buffers merged
              into the level and the base was not touched *)
    }
  | Delta_compact of { pending : int }
  | Snapshot_save of {
      path : string;
      triples : int;
    }
  | Snapshot_load of {
      path : string;
      triples : int;
    }
  | Slow_query of {
      label : string;
      plan : string;  (** rendered [--analyze] tree *)
      delta : delta;
    }
  | Par_fanout of {
      patterns : int;  (** patterns in the fanned-out BGP *)
      planned : int;   (** ranges the planner asked for ([par=N]) *)
      achieved : int;  (** ranges the store actually split into; 0 = split refused *)
      width : int;     (** pool width at execution time *)
    }

type entry = {
  seq : int;  (** global recording order since the last {!clear} *)
  at : float;  (** {!Clock.now} at span entry / event emission *)
  dom : int;  (** id of the domain the entry was recorded on *)
  id : int;  (** process-unique span id (> 0); 0 for events *)
  parent : int option;  (** enclosing span's [id]: the innermost span
                            open on the recording domain, or the handle
                            passed as [?parent] *)
  depth : int;  (** nesting depth, outermost = 0 *)
  duration : float;  (** seconds; 0 for events *)
  kind : kind;
}

type handle
(** An open span from {!enter_span}.  The handle API exists for call
    sites that cannot be expressed as a closure (resource lifetimes
    spanning functions) and as the parent token for cross-domain
    propagation ({!with_span_h}); everywhere else use {!with_span} —
    the [span-hygiene] lint rule enforces exactly that for library
    code. *)

val with_span : ?parent:handle -> string -> (unit -> 'a) -> 'a
(** Time [f] under [name].  The span is recorded even when [f] raises.
    [?parent] attaches it under an explicitly held handle (a pool task
    joining its submitting query) instead of this domain's innermost
    open span. *)

val with_span_h : ?parent:handle -> string -> (handle -> 'a) -> 'a
(** {!with_span}, but [f] receives the open span's handle — pass it as
    [?parent] to spans created inside tasks fanned out to other
    domains.  While the gate is off [f] gets a disabled handle (safe to
    pass on: it propagates "no parent"). *)

val enter_span : ?parent:handle -> string -> handle
(** Open a span ([lint: allow span-hygiene] — this is the definition).
    While the gate is off, returns a shared no-op handle without
    allocating. *)

val exit_span : handle -> unit
(** Close and record the span.  Idempotent; a second call (or any call
    on a disabled handle) is a no-op.  Must run on the domain that
    entered the span (it restores that domain's nesting state). *)

val emit : kind -> unit
(** Record one event, whatever the master gate says. *)

val step_names : string array
(** The join strategy of each {!Plan_choice} step code: ["scan"],
    ["nested-loop"], ["merge"], ["hash"]. *)

val max_plan_steps : int
(** Steps a {!Plan_choice} records (31: two bits each in one int). *)

val query_label : op:string -> patterns:int -> string
(** ["project/2tp"]: how query-boundary entries name their query. *)

val dump : unit -> entry list
(** Retained entries, oldest first. *)

val spans : unit -> entry list
(** The {!Span} entries of {!dump}, in completion order. *)

val events : unit -> entry list
(** Every other entry of {!dump}. *)

val recorded : unit -> int
(** Entries recorded since the last {!clear} / {!set_capacity}. *)

val dropped : unit -> int
(** Entries overwritten because their shard's ring was full. *)

val capacity : unit -> int
(** Ring slots per domain shard. *)

val set_capacity : int -> unit
(** Resize every shard's ring (0 records nothing).  Clears the rings. *)

val clear : unit -> unit
(** Empty the rings, zero the tallies, reset ids and the calling
    domain's nesting. *)

val kind_name : kind -> string
(** Stable dotted tag, e.g. ["delta.flush"]; ["span"] for spans. *)

val name : entry -> string
(** A span's own name, an event's {!kind_name}. *)

val delta_to_json : delta -> Json.t

val entry_to_json : entry -> Json.t

val to_json : unit -> Json.t
(** [{"capacity", "recorded", "dropped", "events": [...]}], every
    retained entry. *)

val pp : Format.formatter -> unit -> unit
(** One line per retained entry, timestamps relative to the oldest,
    indented by depth. *)

val pp_block : Format.formatter -> string -> unit
(** Print a multi-line string verbatim inside a [@[<v>]] box — used for
    embedded plan trees, where [pp_print_text] would reflow away the
    indentation. *)
