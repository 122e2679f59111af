(** Chrome trace-event / Perfetto JSON export and inspection.

    [json] renders per-slot flight rings as the JSON object format
    consumed by ui.perfetto.dev and chrome://tracing: a ["traceEvents"]
    array of [B]/[E] (span), [i] (instant) and [C] (counter) records
    with timestamps in microseconds, [pid] 1 and one [tid] per ring
    (the ring's index, so [tid] 0 is the calling domain's slot), plus
    [M]etadata records naming the process and each worker thread.
    Each track keeps its ring's order: rings are single-writer with
    monotonic timestamps, so no cross-ring reordering is needed.

    Ring wrap-around can strand span halves; the exporter repairs them
    ([End] without an open span is dropped, still-open spans are closed
    at the track's final timestamp), so emitted traces always pass
    {!validate}. *)

exception Invalid of string

val json : ?run:string -> Flight.t array -> Json.t
(** [?run] names the process in the trace UI (default ["pift"]).  Ring
    wrap-around losses are reported as [pift_dropped_events] (total) and,
    when non-zero, [pift_dropped_by_track]. *)

val write : out_channel -> ?run:string -> Flight.t array -> unit
(** [json] followed by a newline, serialized to [oc]. *)

(** {1 Decoding} *)

type check = {
  c_tracks : int;  (** worker tracks ([thread_name] metadata records) *)
  c_events : int;  (** non-metadata events *)
  c_spans : int;  (** balanced [B]/[E] pairs *)
  c_instants : int;
  c_samples : int;  (** counter samples *)
  c_flows : int;  (** flow events ([s]/[t]/[f] — provenance edges) *)
  c_counter_names : string list;  (** distinct counter tracks, sorted *)
  c_timeline : (int * Flight.event list) list;
      (** each [tid]'s [B]/[E]/[i]/[C] records decoded back into the
          ring events they were written from (timestamps in seconds),
          tracks in order of first appearance *)
}

val validate : Json.t -> (check, string) result
(** Structural check used by tests, CI and [pift report]: [traceEvents]
    is present, every event carries [ph]/[pid]/[tid] (plus [name]/[ts]
    where the phase requires them, and [id] for flow phases),
    timestamps are non-negative and non-decreasing per [tid], and
    [B]/[E] nest and balance on every track — so every [c_timeline]
    track is balanced. *)

val summarize : Json.t -> Format.formatter -> unit -> unit
(** Human summary for [pift report]: track/event counts, per-phase time
    (span names grouped by {!Profile.phase_of}), per-worker busy-time
    utilization, the slowest spans, and self time per subsystem with the
    hottest folded stacks.  One {!Profile.spans} walk per decoded track
    feeds every table, the walk {!Profile.fold} runs over live rings.

    @raise Invalid on a malformed trace (same checks as {!validate}). *)
