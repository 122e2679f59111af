(** Record-once / replay-many harness — the paper's offline methodology:
    "the PIFT Native just prints out the address ranges of source and
    sink, which then are fed into the PIFT analysis code along with the
    CPU instruction stream trace obtained by gem5" (§5).

    An application is executed once; its full instruction trace plus the
    time-stamped source registrations and sink checks are kept.  Any
    number of tracker configurations (the NI×NT sweep needs 200) can then
    be replayed against the recording without re-running the program. *)

type marker =
  | Source of { kind : string; range : Pift_util.Range.t }
  | Sink of { kind : string; ranges : Pift_util.Range.t list }

type t = {
  name : string;
  trace : Pift_trace.Trace.t;
      (** with its instructions when {!record}ed, without when decoded
          ({!Trace_io.load}) *)
  markers : (int * marker) array;
      (** (global seq at occurrence, marker), in order *)
  pid : int;
  bytecodes : int;
  frag_hits : int;
      (** fragment fetches the VM's translation cache served; 0 when
          decoded *)
  frag_misses : int;  (** fragments the VM translated; 0 when decoded *)
}

val record :
  ?mode:Pift_dalvik.Vm.mode ->
  ?flight:Pift_obs.Flight.t -> Pift_workloads.App.t -> t
(** Execute the app and capture everything.  An uncaught application
    exception terminates the run but still yields the recording.
    [mode] selects interpreter or JIT execution (default interpreter).
    The recording keeps the run's counts: the trace holds the
    instructions retired, and [bytecodes], [frag_hits] and
    [frag_misses] are read off the VM when it stops.  [flight]
    stamps one ["source"]/["sink-check"] instant per marker as the
    Manager fires and passes through to the VM's ["vm-run"] span. *)

val walk :
  t ->
  row:(int array -> int -> unit) ->
  marker:(int -> marker -> unit) ->
  unit
(** The one walk over a recording: its rows in trace order
    ({!Pift_trace.Trace.walk}), and each marker, with its timestamp,
    once the walk has passed that seq — after the first event whose seq
    is at least the marker's (markers at or before seq 0 before the
    first row, markers past the last event at the end).  A counted row
    such an event falls inside is handed over in parts, each a counted
    row in a scratch array [row] must not keep, so the order of events
    and markers is exact.  Replay, the trace writers, the in-memory
    service source and every experiment driver walk it. *)

type item =
  | Item_event of Pift_trace.Event.t
  | Item_marker of int * marker  (** (global seq at occurrence, marker) *)
(** One record of a trace read one at a time — the unit the service
    engine's per-item path ingests ({!Trace_io.read_item}). *)

val track :
  Pift_core.Tracker.t -> Pift_trace.Trace.t -> int array -> int -> unit
(** [track tracker trace rows o]: Algorithm 1's step for the row at [o]
    of [rows], a row (or part) of [trace] as {!walk} or
    {!Pift_trace.Trace.iter_rows} hands it over: [on_load]/[on_store]
    with the row's interned range, or one [on_other ~n] for a counted
    row. *)

type verdict = { kind : string; flagged : bool }

type origin_verdict = {
  ov_kind : string;
  ov_flagged : bool;  (** the same flag as the plain verdict *)
  ov_origins : string list;
      (** source kinds overlapping the checked ranges at check time,
          sorted *)
}
(** One sink check with its origin set, captured at the moment of the
    check (later untainting cannot erase it). *)

type replay = {
  verdicts : verdict list;  (** in sink-check order *)
  flagged : bool;  (** any sink check came back tainted *)
  stats : Pift_core.Tracker.stats;
  origins : origin_verdict list;
      (** in sink-check order; [[]] unless replayed [~with_origins] *)
}

val replay :
  ?store:Pift_core.Store.t ->
  ?telemetry:Pift_obs.Telemetry.t ->
  ?with_origins:bool ->
  policy:Pift_core.Policy.t -> t -> replay
(** Run Algorithm 1 over the recording, straight from its rows
    ({!walk}): the tracker's [on_load]/[on_store] get the row's interned
    range and a counted row (or part of one) is one [on_other ~n], so
    the walk allocates nothing per event.  [store] defaults to a fresh
    {!Pift_core.Store.create}; pass one to replay against another
    {!Pift_core.Store.t} (a range-cache model, a wrapped store), or to
    read its counters once the replay ends ({!Metrics.samples} builds
    the [pift_store_*] and [pift_tracker_*] metrics from that store and
    [stats]).

    [telemetry] observes the tracker from outside and changes no
    verdict, stat or stdout: it binds the ["tainted_bytes"],
    ["ranges"] and ["window_used"] sources to the tracker's live
    counters (replacing a previous replay's bindings on a shared
    instance) and is bumped once per event.  The replay opens no span
    of its own; callers that want it on a profile bracket it on their
    flight ring ({!Pift_obs.Profile.fold}).

    [with_origins] (default off) threads a {!Pift_core.Provenance}
    sidecar through the tracker and fills [origins];
    verdicts and stats are byte-identical with it on or off. *)

type grid = {
  answers : ((int * int) * replay) list;
      (** ((NI, NT), replay at (NI, NT)) for every distinct listed cell,
          ascending by (NI, NT) *)
  replays : int;  (** replays run, at most the distinct cells' count *)
}

val replay_grid :
  ?telemetry:Pift_obs.Telemetry.t ->
  ?with_origins:bool ->
  ?untaint:bool ->
  nis:int list ->
  nts:int list ->
  t ->
  grid
(** {!replay} at [Policy.make ?untaint ~ni ~nt ()] for every cell of
    [nis] × [nts] (each in any order, duplicates allowed), sharing
    replays over rectangles of the grid.  It replays the largest cell
    first (largest NI, then largest NT); a replay at (NI, NT) whose
    tracker ends with NI floor [lo] ({!Pift_core.Tracker.ni_floor}) and
    window depth [d] ({!Pift_core.Tracker.depth}) answers every listed
    cell still unanswered in [\[lo, NI\] × \[min d NT, NT\]] with the
    same verdicts, origins and stats, and the next replay runs at the
    largest cell still unanswered; no such cell has an NI above the
    replay's.  [telemetry] and [with_origins] pass to every replay
    run. *)

val ni_bands : int list -> int list list
(** The distinct NIs of the list, ascending, cut into the bands a pool
    walks as separate {!replay_grid}s: NI up to 10, 11–14, 15–17 and
    18 up, empty bands left out.  One walk's replays form a chain, and
    on a recording whose taint explodes at high NI (LGRoot) most of
    them fall above NI 10, so the cuts split that chain where its cost
    lies.  They depend on the NI values alone, so the replays a pool
    runs are the same at every job count. *)

type dift_replay = {
  dift_verdicts : verdict list;
  dift_flagged : bool;
  propagations : int;
  dift_origins : origin_verdict list;
      (** exact ground-truth origin sets; [[]] unless [~with_origins] *)
}

val replay_dift : ?with_origins:bool -> t -> dift_replay
(** Full register-level DIFT over the same recording (ground truth),
    walking the instructions the recording kept beside its events.
    [with_origins] mirrors every propagation over exact per-source
    origin sets ({!Pift_baseline.Full_dift}) and fills [dift_origins].
    Raises [Invalid_argument] naming the recording when its trace has
    no instructions ({!Pift_trace.Trace.has_insns}): one loaded with
    {!Trace_io.load} holds only the Fig. 5 record. *)
