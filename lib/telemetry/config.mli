(** The process-wide telemetry gate.

    Every hot-path hook in the instrumented layers compiles down to one
    read of {!enabled} plus a branch when the flag is off; no counter is
    bumped, no histogram bucket touched, no span recorded, and nothing is
    allocated.  The flag defaults to [false] and can be switched on for a
    process by exporting [HEXASTORE_TELEMETRY=1] (or [true]/[on]), or at
    runtime through [Telemetry.enabled]. *)

val enabled : bool ref
(** Gate for all metric/trace mutation.  Defaults to [false] unless the
    [HEXASTORE_TELEMETRY] environment variable says otherwise. *)

val activity_count : unit -> int
(** Number of metric/trace mutations that have actually executed since
    process start: lets tests prove the hooks are off by default without
    inspecting every metric. *)

val note_activity : unit -> unit
(** Called by the metric primitives when a mutation runs; exposed for the
    sibling modules only. *)
