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
  ?flight:Pift_obs.Flight.t -> ?profile:Pift_obs.Profile.t ->
  Pift_workloads.App.t -> t
(** Execute the app and capture everything.  An uncaught application
    exception terminates the run but still yields the recording.
    [mode] selects interpreter or JIT execution (default interpreter).
    The recording keeps the run's counts: the trace holds the
    instructions retired, and [bytecodes], [frag_hits] and
    [frag_misses] are read off the VM when it stops.  [flight]
    stamps one ["source"]/["sink-check"] instant per marker as the
    Manager fires and passes through to the VM's ["vm-run"] span;
    [profile] attributes the run to a ["record"] region with the VM's
    ["vm"]/["cpu"] regions nested beneath it. *)

val interleave :
  t ->
  observe:(Pift_trace.Event.t -> unit) ->
  on_marker:(int -> marker -> unit) ->
  unit
(** Walk the recording in replay order: every event in trace order, and
    each marker, with its timestamp, once every event up to that
    timestamp has been observed.  This is the one interleaving of events
    and markers: {!replay} applies it, {!items} pulls it and the trace
    writers serialize it. *)

type item =
  | Item_event of Pift_trace.Event.t
  | Item_marker of int * marker  (** (global seq at occurrence, marker) *)
(** One element of a recording viewed as a flat stream — the unit the
    service engine ingests and {!Pift_eval.Trace_io} streams off disk. *)

val items : t -> unit -> item option
(** Pull stream over the recording in replay order: markers surface
    after the last event at-or-before their timestamp, exactly where
    {!replay} applies them and where the trace writers serialize them.
    [None] once exhausted.  Feeding the items of a recording to a
    tracker one at a time is equivalent to {!replay} — the
    interleaving-aware path multi-tenant ingestion is built on. *)

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
  ?telemetry:Pift_obs.Telemetry.t -> ?profile:Pift_obs.Profile.t ->
  ?with_origins:bool ->
  policy:Pift_core.Policy.t -> t -> replay
(** Run Algorithm 1 over the recording.  [store] defaults to a fresh
    {!Pift_core.Store.create}; pass one to replay against another
    {!Pift_core.Store.t} (a range-cache model, a wrapped store), or to
    read its counters once the replay ends ({!Metrics.samples} builds
    the [pift_store_*] and [pift_tracker_*] metrics from that store and
    [stats]).

    The replay observes the tracker from outside; neither of these
    changes verdicts, stats or stdout:
    - [telemetry] binds the ["tainted_bytes"], ["ranges"] and
      ["window_used"] sources to the tracker's live counters (replacing
      a previous replay's bindings on a shared instance) and is bumped
      once per event.
    - [profile] wraps the whole replay in a ["replay"] region, with
      store operations nested beneath it as ["store"]
      ({!Pift_core.Store.with_profile}).

    [with_origins] (default off) threads a {!Pift_core.Provenance}
    sidecar through the tracker and fills [origins];
    verdicts and stats are byte-identical with it on or off. *)

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
