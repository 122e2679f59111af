(** The PIFT taint-propagation heuristic — Algorithm 1 of the paper.

    The tracker consumes the instruction-event stream.  On a load whose
    address range overlaps tainted state it opens (or restarts) a
    *tainting window* of [ni] instructions; the target ranges of the next
    up-to-[nt] stores inside the window are tainted; stores outside the
    window (or beyond the propagation cap) are optionally *untainted*.
    Windows are per-process, measured on the per-process instruction
    counter.  The tracker caches the last pid it looked up together
    with that pid's window (or the fact that it has none), so a run of
    events from one process resolves its window once;
    {!release_pid} and {!restore} re-resolve the cached pid.  Queries
    ({!is_tainted}, {!window_used}) move the cache too, so a tracker,
    reads included, belongs to one domain at a time.

    Sources register tainted ranges with {!taint_source} (the PIFT
    Manager / Native / Module path of Fig. 3); sinks query with
    {!is_tainted}. *)

type t

val create :
  ?policy:Policy.t -> ?store:Store.t -> ?prov:Provenance.t -> unit -> t
(** [policy] defaults to {!Policy.default}; [store] to
    [Store.create ()], the exact per-process software store.

    When [prov] is given, the tracker records its decisions in it as an
    origin-set sidecar: sources land with their kind as the label, each
    window it opens, in-window store it taints and range it untaints
    is passed on, and {!origins_of} answers from it.  The sidecar's
    per-label union equals the tracker's own taint state at every step,
    so verdicts, stats and stdout are unchanged by threading it.

    The tracker pushes nothing to observers.  Its counters ({!stats},
    {!current_tainted_bytes}, {!current_ranges}, {!window_used}) are
    its whole observation surface; callers read them when they need
    them — {!Pift_eval.Metrics.samples} builds the [pift_tracker_*]
    metrics from them when a replay ends, {!Pift_eval.Recorded.replay}
    binds telemetry sources over them, and store-level profiling wraps
    the {!Store.t} ({!Store.with_profile}). *)

val policy : t -> Policy.t

val taint_source : ?kind:string -> t -> pid:int -> Pift_util.Range.t -> unit
(** Software-level registration at a source: taint a fresh range.
    [kind] (default ["source"]) is the origin label recorded by the
    provenance sidecar, ignored without one. *)

val untaint_range : t -> pid:int -> Pift_util.Range.t -> unit
(** Software-level removal (e.g. buffer freed and cleared). *)

val release_pid : t -> pid:int -> unit
(** Tenant eviction: drop the pid's window, its store state and (when
    present) its provenance state, so {!current_tainted_bytes} returns
    to the remaining tenants' baseline.  A released pid starts clean if
    seen again.  Peak stats ([max_tainted_bytes]/[max_ranges]) keep
    their high-water marks. *)

val current_tainted_bytes : t -> int
(** Live store occupancy in bytes (not the peak) — the engine's
    per-shard occupancy gauge reads this around every op/eviction. *)

val current_ranges : t -> int
(** Live distinct-range count (not the peak). *)

val window_used : t -> pid:int -> int
(** Stores tainted in the pid's current tainting window (its NT budget
    used so far); [0] when the pid has no window. *)

val origins_of : t -> pid:int -> Pift_util.Range.t -> string list
(** Source kinds whose data overlaps the range (sorted); [[]] without a
    provenance sidecar. *)

val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool
(** Software-level query at a sink. *)

(** {1 Algorithm 1}

    One step per access kind, taking the Fig. 5 ints as they come:
    [seq] is the global sequence number, [k] the pid's instruction
    counter and [r] the accessed range.  These steps are the tracker's
    whole Algorithm 1: {!observe} only dispatches an event to them, and
    the service engine calls them straight from its column rows, so no
    event record is built on that path.  A step allocates nothing
    itself, and with the default store ({!Store.create}) neither do the
    store and provenance calls it makes, growth of their arrays aside. *)

val on_load : t -> pid:int -> seq:int -> k:int -> Pift_util.Range.t -> unit
(** Lines 10–15: a load overlapping the pid's taint (re)starts its
    window at [k]. *)

val on_store : t -> pid:int -> seq:int -> k:int -> Pift_util.Range.t -> unit
(** Lines 16–23: inside the window, and under the NT budget, the store
    taints [r]; otherwise it untaints [r] when the policy says so. *)

val on_other : t -> seq:int -> n:int -> unit
(** [n >= 1] instructions with no memory access, [seq] the largest of
    their seqs: they only count.  Algorithm 1 reads nothing else of
    them, so the service engine hands it a whole run of one pid's
    non-memory instructions as one counted row ({!Pift_trace.Row}): the
    tracker ends in the state [n] calls with [~n:1] at the run's seqs
    would leave. *)

val observe : t -> Pift_trace.Event.t -> unit
(** Feed one instruction event: dispatches on its access to
    {!on_load}, {!on_store} or {!on_other}. *)

val tainted_ranges : t -> pid:int -> Pift_util.Range.t list

type stats = {
  taint_ops : int;  (** store ranges tainted by propagation *)
  untaint_ops : int;  (** store ranges actually untainted *)
  lookups : int;  (** load-time taint queries *)
  tainted_loads : int;  (** queries that hit and opened a window *)
  max_tainted_bytes : int;
  max_ranges : int;
  events : int;
}

val stats : t -> stats

(** {1 Persistence}

    Structural snapshot for the service durability layer
    ({!Pift_service.Snapshot}): the full Algorithm 1 state — stats
    (including peaks), clock, per-pid windows, store intervals, and the
    provenance sidecar when present — as plain data. *)

type persisted = {
  p_stats : stats;
  p_last_time : int;
  p_windows : (int * int * int) list;
      (** (pid, LTLT, NT used), sorted by pid; LTLT can be the -inf
          sentinel, so it needs signed coding *)
  p_store : (int * Pift_util.Range.t list) list;  (** {!Store.t.dump} *)
  p_prov : Provenance.persisted option;
}

val persist : t -> persisted
(** Deterministic: identical tracker states persist identically,
    whatever the Hashtbl order.  Raises [Failure] on a
    {!Storage.store}-backed tracker (lossy range cache). *)

val restore : t -> persisted -> unit
(** Rebuild persisted state into a freshly created tracker with the
    same policy and provenance mode (the snapshot manifest records
    both).  Restored ranges bypass
    [taint_source], so stats and the sidecar keep their persisted
    values.
    After [restore t p] the tracker's observable behaviour — verdicts,
    origin sets, stats, future window decisions — is identical to the
    persisted tracker's. *)
