(** Provenance sidecar for Algorithm 1: taint tags identify the source
    that produced them.

    The paper's related work (Raksha, Flexitaint) uses multi-bit tags to
    carry policy; the natural PIFT extension is to carry *source
    identity*, so a sink check answers not just "is this tainted" but
    "this buffer contains data derived from the IMEI and the phone
    number".

    The sidecar decides nothing.  A {!Tracker} created with [~prov]
    makes every Algorithm 1 decision once and records it here:
    {!window_opened} when a load hit taint (the window's label set is
    the labels that load touched), {!store_tainted} for each in-window
    store it tainted (the store inherits the window's labels), and
    {!untaint_range} for each out-of-window store it actually
    untainted.  Clean loads and stores the tracker left alone never
    reach the sidecar.

    State is one {!Store_flat} taint set per (process, label), so
    per-label cost matches the plain tracker and
    the label count only multiplies the source-registration footprint.
    Each process has one record: its labels as an array sorted by
    [String.compare], a parallel array of their sets, and the window
    the tracker opened last on it — that load's seq and range and the
    labels (and sets) it hit, in label order, overwritten in place by
    the next opening.  An opening records only the load: the label
    sets are probed for its hits lazily, just before the first thing
    that reads them ({!store_tainted}, {!persist}) or changes one of
    the process's sets ({!taint_source}, {!untaint_range}), so a
    window reopened before any store lands in it is never probed.
    Until then the sets are as they were at the opening, so the probe
    finds exactly what an eager one would have.  A one-entry cache
    of the last process looked up sits in front of the pid table, as in
    {!Store.create} and {!Tracker}; reads move it too, so a sidecar,
    reads included, belongs to one domain at a time.  So {!window_opened}, {!store_tainted} and {!untaint_range}
    hash nothing while one process runs, need no sort, and allocate
    nothing once the window arrays have grown to the process's label
    count.  The scan paths (window probes, label lookups and
    untainting) cost one probe per label of the *probed* process: cold
    processes held by a long-lived engine add nothing to another
    tenant's per-event cost.

    A window's label set is fixed when its load happens: a label first
    registered while the window is open does not join it, even over
    the loaded bytes; the next tainted load picks it up.

    {b Invariant} (the basis of every origin-set guarantee downstream):
    the union of the per-label sets equals the carrying tracker's state
    at every point of the replay.  It holds by construction: every
    store mutation the tracker makes is applied to the sidecar too —
    sources to their label, propagation to every window label, and
    untainting to every label.  Hence a tracker-flagged sink always has
    a non-empty origin set, and vice versa.  Driving the sidecar's
    entry points other than through its tracker voids the invariant. *)

type t

val create : unit -> t
(** An empty sidecar; hand it to {!Tracker.create} as [~prov]. *)

val taint_source : t -> pid:int -> label:string -> Pift_util.Range.t -> unit

val untaint_range : t -> pid:int -> Pift_util.Range.t -> unit
(** The range is dropped from every label of the process: the tracker
    calls this for {!Tracker.untaint_range} and for every out-of-window
    store it actually untainted. *)

val window_opened : t -> pid:int -> seq:int -> Pift_util.Range.t -> unit
(** The tracker opened (or restarted) [pid]'s window with a tainted load
    of [r] at global sequence [seq].  The window's label set becomes the
    labels whose taint overlaps [r] now; the sets are probed for them
    when the window is first used (see above).  The window is recorded
    in [pid]'s record in place of the previous one. *)

val store_tainted : t -> pid:int -> seq:int -> Pift_util.Range.t -> unit
(** The tracker tainted [r] with an in-window store at global sequence
    [seq]: [r] joins every label of [pid]'s window, and the
    {!set_on_propagate} hook fires. *)

val probes : t -> int
(** Cumulative count of per-label set visits on the scan paths
    ({!window_opened}, {!labels_of}, {!is_tainted}, {!untaint_range});
    an opening counts its process's label count when it happens,
    whether or not its probe ever runs.
    Regression handle for the per-pid index: with N cold pids resident,
    probing one pid must cost that pid's label count, not the table
    size.  Clean loads and stores the tracker left alone add nothing. *)

val labels_of : t -> pid:int -> Pift_util.Range.t -> string list
(** Labels whose taint overlaps the range, sorted. *)

val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool

val all_labels : t -> string list
(** Every label ever registered, sorted. *)

val tainted_bytes : t -> label:string -> int

val entries : t -> ((int * string) * Pift_util.Range.t list) list
(** Full state dump for emission: ((pid, label), ranges), sorted by
    (pid, label) — the only sanctioned way to iterate the state for
    output, so provenance emissions are byte-identical across runs and
    [--jobs] counts. *)

(** {1 Persistence}

    Structural snapshot of the sidecar for the service durability layer
    ({!Pift_service.Snapshot}): everything [labels_of] and the window
    entry points depend on, in deterministic (sorted) order, as plain
    data the snapshot format can encode.  The window's LTLT and NT
    budget are the tracker's ({!Tracker.persisted.p_windows}); the
    sidecar keeps only who opened it. *)

type persisted_window = {
  pw_pid : int;
  pw_labels : string list;  (** sorted; [[]] before any tainted load *)
  pw_opener_seq : int;
  pw_opener_range : Pift_util.Range.t option;
}

type persisted = {
  ps_entries : ((int * string) * Pift_util.Range.t list) list;
      (** as {!entries}: sorted by (pid, label) *)
  ps_windows : persisted_window list;
      (** one per tracker window, in {!Tracker.persisted.p_windows}
          order *)
  ps_known_labels : string list;  (** sorted; may exceed [ps_entries]'
      labels — a label stays known after its ranges untaint *)
  ps_probes : int;
}

val persist : t -> windows:int list -> persisted
(** [windows] are the carrying tracker's window pids, in order: one
    persisted window each, empty where no tainted load opened it.  A
    window still waiting for its probe is probed first, so it persists
    as an eager one would. *)

val restore : t -> persisted -> unit
(** Rebuild persisted state into a freshly created sidecar; after
    [restore t p], [persist t ~windows] over [p]'s window pids equals
    [p] up to empty-set elision. *)

(** {1 Propagation hook}

    The graph builder ({!Pift_eval.Explain}) needs, per in-window store,
    the load that opened the window and the label set it carried. *)

type propagation = {
  p_pid : int;
  p_store_seq : int;  (** global sequence of the tainted store *)
  p_stored : Pift_util.Range.t;  (** range the store tainted *)
  p_load_seq : int;  (** the tainted load that opened the window *)
  p_loaded : Pift_util.Range.t;  (** range that load read *)
  p_labels : string list;  (** window label set, sorted *)
}

val set_on_propagate : t -> (propagation -> unit) -> unit
(** Invoked once per in-window store whose window was opened by a
    tainted load (i.e. once per taint propagation).  Off by default;
    the hot path pays one option check when unset. *)

(** {1 Flow graphs}

    The shared graph representation behind [pift why], [--prov-out] and
    the CI-validated exports: nodes are source registrations, loads,
    stores and sink checks; edges are propagations in dataflow order,
    stamped with the global sequence number at which the data moved.
    Nodes are cached by (kind, pid, range, seq), so walks from several
    sinks share their common sub-chains and the result is a DAG. *)
module Graph : sig
  type node_kind =
    | N_source of string  (** source registration, carrying its label *)
    | N_load  (** tainted load that opened a window *)
    | N_store  (** in-window store that propagated taint *)
    | N_sink of string  (** flagged sink check, carrying its kind *)

  type node = {
    id : int;  (** dense, in creation order (deterministic) *)
    kind : node_kind;
    pid : int;
    range : Pift_util.Range.t;
    seq : int;  (** global sequence number of the event/marker *)
  }

  type edge = { e_from : int; e_to : int; e_seq : int }

  type t

  val create : unit -> t

  val node :
    t -> kind:node_kind -> pid:int -> range:Pift_util.Range.t -> seq:int ->
    node
  (** Cached: an existing node with the same (kind, pid, range, seq) is
      returned instead of a duplicate. *)

  val edge : t -> src:node -> dst:node -> seq:int -> unit
  (** Directed dataflow edge; duplicates are dropped. *)

  val nodes : t -> node list
  (** In creation order (ascending [id]). *)

  val edges : t -> edge list
  (** Sorted by (from, to, seq). *)

  val node_count : t -> int
  val edge_count : t -> int

  val kind_label : node_kind -> string
  (** ["source IMEI"], ["load"], ["store"], ["sink http"]. *)

  val to_dot : ?name:string -> t -> string
  (** Graphviz DOT rendering; nodes sorted by id, edges by (from, to,
      seq), so the output is byte-identical for identical graphs. *)

  type sink_summary = {
    ss_kind : string;
    ss_seq : int;
    ss_origins : string list;  (** sorted *)
    ss_nodes : int;  (** longest origin path, in nodes *)
  }
  (** Per-sink digest carried in the JSON export so [pift report] can
      print a flow summary without re-deriving the walks. *)

  val flow_json : ?run:string -> ?sinks:sink_summary list -> t -> Pift_obs.Json.t
  (** Perfetto-loadable export: a ["traceEvents"] array with one
      zero-width slice per node at [ts = seq] µs plus one [s]/[f] flow
      event pair per edge, and a ["pift_flow_graph"] object ([run],
      node/edge counts, [sinks]) that both summarizes the graph and
      serves as the {!Pift_obs.Sink.classify} sniffing key. *)
end
