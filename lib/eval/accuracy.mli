(** Accuracy evaluation over labelled apps — the machinery behind Fig. 11
    and the §5.1 headline numbers (98% accuracy, 0% FP, 2% FN at
    NI=13, NT=3). *)

type confusion = { tp : int; fp : int; tn : int; fn : int }

val accuracy : confusion -> float
(** (TP + TN) / total. *)

val fp_rate : confusion -> float
(** FP / (FP + TN); 0 when there are no negatives. *)

val fn_rate : confusion -> float

type sweep = {
  apps : int;
  nis : int list;
  nts : int list;
  cells : ((int * int) * confusion) list;
      (** keyed by (ni, nt), sorted ascending by key *)
  trace_insns : int list;
      (** instructions in each app's recorded trace, in app order *)
}

val evaluate :
  policy:Pift_core.Policy.t -> Pift_workloads.App.t list -> confusion
(** Record and replay each app once at the given policy. *)

(** {1 Attribution accuracy}

    Beyond the boolean verdict: when a sink is correctly flagged, does
    PIFT's predicted origin set ({!Pift_core.Provenance} sidecar) name
    the same sources as an exact full-DIFT replay
    ({!Pift_baseline.Full_dift} with origin mirroring)? *)

type attribution_class =
  | Exact  (** predicted set equals the exact set *)
  | Over  (** strict superset — windowed prediction over-attributed *)
  | Under  (** strict subset — a real source went missing *)
  | Mixed  (** incomparable sets *)

type attribution_row = {
  at_app : string;
  at_check : int;  (** 1-based sink-check index within the app *)
  at_sink : string;  (** sink kind *)
  at_pift : string list;  (** predicted origin set, sorted *)
  at_dift : string list;  (** exact origin set, sorted *)
  at_class : attribution_class;
  at_jaccard : float;  (** |∩| / |∪|; 1 when both sets are empty *)
}

type attribution = {
  at_rows : attribution_row list;
      (** one row per sink check flagged by {e both} trackers (true
          positives), in app order then check order *)
  at_exact : int;
  at_over : int;
  at_under : int;
  at_mixed : int;
  at_mean_jaccard : float;  (** 0 when there are no rows *)
}

val attribution :
  policy:Pift_core.Policy.t ->
  Pift_workloads.App.t list ->
  attribution
(** Record each app once, replay it under PIFT with the provenance
    sidecar and under full DIFT with exact origin mirroring, and compare
    origin sets on every sink check both trackers flag. *)

val class_label : attribution_class -> string
(** ["exact"], ["over"], ["under"], ["mixed"]. *)

val render_attribution : attribution -> Format.formatter -> unit -> unit
(** Per-sink comparison table plus the class counts and mean Jaccard. *)

val attribution_json : attribution -> Pift_obs.Json.t
(** Machine-readable export; top-level key ["pift_attribution"] is the
    sniffing handle {!Pift_obs.Sink.classify} keys on. *)

val default_nis : int list
(** NI = 1..20, the paper's Fig. 11 columns. *)

val default_nts : int list
(** NT = 1..10, the paper's Fig. 11 rows. *)

val sweep :
  ?nis:int list ->
  ?nts:int list ->
  ?progress:(int -> int -> unit) ->
  ?on_cell:(int -> int -> unit) ->
  ?rings:Pift_obs.Flight.t array ->
  ?telems:Pift_obs.Telemetry.t array ->
  ?profiles:Pift_obs.Profile.t array ->
  ?jobs:int ->
  ?with_origins:bool ->
  Pift_workloads.App.t list ->
  sweep
(** Full NI×NT grid (defaults NI=1..20, NT=1..10, the paper's 200
    combinations).  Each app is executed once and replayed per cell.
    [progress done total] is called per app recorded, [on_cell done
    total] per grid cell finished (both under a lock when parallel, in
    completion order — the hook behind the live progress line).  The
    result carries what the [pift_sweep_*] metrics are built from
    ({!Metrics.samples}): the app count, the cells and the per-app
    trace lengths.  [rings] (one flight-recorder ring per worker slot, also handed to
    the pool for chunk spans) adds a ["record:<app>"] span per
    recording and, per grid cell, a ["cell(ni,nt)"] span plus
    ["max_tainted_bytes"]/["max_ranges"] counter samples — one sample
    per cell, not per event, so rings never flood mid-sweep.  [telems]
    (one {!Pift_obs.Telemetry} instance per worker slot) threads the
    continuous-telemetry ring through every grid replay: each cell's
    replay re-binds the snapshot sources on its slot's instance, and
    snapshots fire on the event-count / wall-clock cadence across the
    whole sweep.  [profiles] (one {!Pift_obs.Profile} per slot, also
    handed to the pool) attributes wall time to
    [pool;replay;store] (and [pool;record;vm;cpu]) folded
    stacks.  Both follow the per-slot single-writer discipline; neither
    changes the result or stdout.  [jobs]
    (default 1) sizes the [Pift_par] domain pool the recordings and
    grid cells run on; the result is identical for every [jobs] value
    and with tracing on or off.
    [with_origins] (default off) threads the provenance sidecar through
    every grid replay; verdicts are
    byte-identical with it on or off, so the sweep result is too — the
    flag only measures the sidecar's cost under the full grid. *)

val cell : sweep -> ni:int -> nt:int -> confusion

val misclassified :
  policy:Pift_core.Policy.t ->
  Pift_workloads.App.t list ->
  (string * [ `False_positive | `False_negative ]) list
(** Names of the apps the policy gets wrong. *)

val render : sweep -> Format.formatter -> unit -> unit
(** Fig. 11-style accuracy heatmap (percent). *)
