(** Snapshot renderers: JSON Lines, Prometheus text exposition, and a
    human Textplot summary — plus the inverse JSON readers that back
    [pift report]. *)

val snapshot_to_json :
  ?run:string -> ?spans:(string * float) list -> Registry.sample list -> Json.t
(** One self-contained snapshot object: [{"run", "metrics", "spans"}].
    [run] is omitted when empty.  [spans] are folded profile rows
    ({!Profile.fold}: path, self seconds), written as a tree nested by
    path in which each span's [seconds] is its self time plus its
    descendants'. *)

val write_jsonl : out_channel -> Json.t -> unit
(** Compact rendering plus a newline — one snapshot per line. *)

exception Malformed of string
(** Raised by the readers on structurally invalid snapshot JSON. *)

type file_kind =
  | Metrics_snapshot  (** has a ["metrics"] key — a [--metrics-out] line *)
  | Trace  (** has a ["traceEvents"] key — a [--trace-out] file *)
  | Flow_graph
      (** has a ["pift_flow_graph"] key — a provenance flow-graph export
          ([pift why --prov-out], [run-app --prov-out]); also carries
          ["traceEvents"], so this sniff must precede {!Trace} *)
  | Attribution
      (** has a ["pift_attribution"] key — a [sweep --prov-out] export *)
  | Telemetry
      (** has a ["pift_telemetry"] key — a [--telemetry-out] line
          (header or snapshot; see {!Telemetry.write_jsonl}) *)
  | Unknown of string list
      (** none of the above; carries the top-level keys seen, for the
          warning *)

val classify : Json.t -> file_kind
(** Sniff what a top-level object is, by the keys that are present —
    extra unknown keys never change the answer, so snapshots from newer
    builds stay readable and foreign objects come back [Unknown] (to be
    skipped with a warning) instead of failing the whole report.
    Specific provenance handles win over the generic ["traceEvents"]. *)

val looks_like_dot : string -> bool
(** Raw-content sniff for Graphviz exports (first non-blank line starts
    with ["digraph"]); DOT files are not JSON, so [pift report] must
    catch them before parsing. *)

val samples_of_json : Json.t -> Registry.sample list
val spans_of_json : Json.t -> (string * float) list
(** The snapshot's span tree as folded rows, parents before children:
    each span's self time is its [seconds] less its children's. *)

val run_of_json : Json.t -> string

val prometheus : Registry.sample list -> Format.formatter -> unit -> unit
(** [# HELP]/[# TYPE] exposition.  Histograms expand to cumulative
    [_bucket{le=...}] lines plus [_sum]/[_count]; gauges also expose a
    sibling [name_peak] gauge.  Label values escape exactly backslash,
    double quote and newline, per the exposition format — family labels
    can carry externally influenced strings (marker kinds, pids). *)

val render :
  ?run:string ->
  ?spans:(string * float) list ->
  Registry.sample list ->
  Format.formatter ->
  unit ->
  unit
(** Human summary: span tree with durations, counter bar chart, gauge and
    histogram tables. *)

val render_json : Json.t -> Format.formatter -> unit -> unit
(** {!render} over a parsed snapshot line (the [pift report] path). *)

val render_flow_graph_json : Json.t -> Format.formatter -> unit -> unit
(** Per-sink flow summary (origin set and longest path length) of a
    {!Flow_graph} export. *)

val render_attribution_json : Json.t -> Format.formatter -> unit -> unit
(** Class counts, mean Jaccard and per-sink rows of an {!Attribution}
    export. *)
