module R = Pift_obs.Registry
module Trace = Pift_trace.Trace
module Tracker = Pift_core.Tracker
module Store = Pift_core.Store
module Storage = Pift_core.Storage
module Hw_model = Pift_core.Hw_model

type part =
  | Recording of { recorded : Recorded.t; mode : Pift_dalvik.Vm.mode }
  | Replay of {
      recorded : Recorded.t;
      replay : Recorded.replay;
      store : Store.t;
    }
  | Range_cache of Storage.t
  | Hw of Hw_model.report
  | Sweep of Accuracy.sweep

(* Each part lists its samples in the order snapshots had when every
   subsystem registered its own metrics (stores before loads before
   instructions, say), so snapshots stay comparable byte for byte. *)
let sample kind help name points =
  { R.s_name = name; s_help = help; s_kind = kind; s_points = points }

let counter help name v =
  sample R.Counter_kind help name [ ([], R.P_counter v) ]

(* A quantity that starts at 0, reached [peak] and ends at [value]: its
   high-water mark never reads below 0 or the value, and a NaN never
   raises it. *)
let gauge help name ~peak value =
  let hi a b = if b > a then b else a in
  sample R.Gauge_kind help name
    [ ([], R.P_gauge { value; peak = hi (hi 0. peak) value }) ]

let int_gauge help name ~peak value =
  gauge help name ~peak:(float_of_int peak) (float_of_int value)

let once help name v = gauge help name ~peak:v v

let recording (r : Recorded.t) mode =
  let trace = r.Recorded.trace in
  let mode =
    match mode with
    | Pift_dalvik.Vm.Interpreter -> "interpreter"
    | Pift_dalvik.Vm.Jit -> "jit"
  in
  [
    counter "store instructions retired" "pift_cpu_stores_total"
      (Trace.stores trace);
    counter "load instructions retired" "pift_cpu_loads_total"
      (Trace.loads trace);
    counter "instructions retired" "pift_cpu_instructions_total"
      (Trace.length trace);
    sample R.Counter_kind "bytecodes dispatched, by execution mode"
      "pift_vm_bytecodes_total"
      [ ([ ("mode", mode) ], R.P_counter r.Recorded.bytecodes) ];
    counter "fragments translated on a cache miss"
      "pift_vm_frag_cache_misses_total" r.Recorded.frag_misses;
    counter "translation-fragment cache hits" "pift_vm_frag_cache_hits_total"
      r.Recorded.frag_hits;
  ]

(* A replay adds one range per source marker and one per propagation,
   and removes one per untaint ([pift_tracker_untaint_ops_total]);
   nothing else mutates its store. *)
let replay (r : Recorded.t) (rp : Recorded.replay) (store : Store.t) =
  let s = rp.Recorded.stats in
  let sources =
    Array.fold_left
      (fun n (_, m) ->
        match m with Recorded.Source _ -> n + 1 | Recorded.Sink _ -> n)
      0 r.Recorded.markers
  in
  [
    counter "range insertions into the taint store" "pift_store_add_ops_total"
      (s.Tracker.taint_ops + sources);
    counter "insertions coalesced into an existing range"
      "pift_store_merge_ops_total" (store.Store.merges ());
    (* A recording runs one VM process: every window is [r]'s pid's. *)
    sample R.Counter_kind "tainting windows opened or restarted, per process"
      "pift_tracker_window_opens_total"
      (if s.Tracker.tainted_loads > 0 then
         [
           ( [ ("pid", string_of_int r.Recorded.pid) ],
             R.P_counter s.Tracker.tainted_loads );
         ]
       else []);
    int_gauge "distinct tainted ranges" "pift_tracker_ranges"
      ~peak:s.Tracker.max_ranges (store.Store.range_count ());
    int_gauge "currently tainted bytes across processes (Fig. 15)"
      "pift_tracker_tainted_bytes" ~peak:s.Tracker.max_tainted_bytes
      (store.Store.tainted_bytes ());
    counter "store ranges untainted (Fig. 16)" "pift_tracker_untaint_ops_total"
      s.Tracker.untaint_ops;
    counter "store ranges tainted by propagation (Fig. 16)"
      "pift_tracker_taint_ops_total" s.Tracker.taint_ops;
    counter "queries that hit and opened a window"
      "pift_tracker_tainted_loads_total" s.Tracker.tainted_loads;
    counter "load-time taint queries" "pift_tracker_lookups_total"
      s.Tracker.lookups;
    counter "instruction events observed" "pift_tracker_events_total"
      s.Tracker.events;
  ]

let range_cache storage =
  let st = Storage.stats storage in
  [
    int_gauge "valid primary entries" "pift_storage_occupancy"
      ~peak:st.Storage.max_occupancy (Storage.occupancy storage);
    counter "entries written back to secondary storage"
      "pift_storage_writebacks_total" st.Storage.writebacks;
    counter "insertions dropped when full" "pift_storage_drops_total"
      st.Storage.drops;
    counter "LRU evictions" "pift_storage_evictions_total" st.Storage.evictions;
    counter "range-cache insertions" "pift_storage_insertions_total"
      st.Storage.insertions;
    counter "secondary (main-memory) hits after a primary miss"
      "pift_storage_secondary_hits_total" st.Storage.secondary_hits;
    counter "primary (on-chip) hits" "pift_storage_primary_hits_total"
      st.Storage.hits;
    counter "range-cache lookups" "pift_storage_lookups_total"
      st.Storage.lookups;
  ]

let hw (h : Hw_model.report) =
  [
    once "loads + stores PIFT inspects" "pift_hw_pift_events"
      (float_of_int h.Hw_model.pift_events);
    once "modelled CPU stall cycles from slow-path lookups (Fig. 17)"
      "pift_hw_stall_cycles" h.Hw_model.pift_stall_cycles;
    once "PIFT overhead over untracked execution, percent"
      "pift_hw_overhead_pct" h.Hw_model.pift_overhead_pct;
    once "inline software DIFT overhead, percent"
      "pift_hw_sw_dift_overhead_pct" h.Hw_model.sw_dift_overhead_pct;
    once "instructions per PIFT-processed event" "pift_hw_event_reduction"
      h.Hw_model.event_reduction;
  ]

(* An app is replayed once per rectangle of the grid its NI bands
   meet, not once per cell (Recorded.replay_grid). *)
let sweep (sw : Accuracy.sweep) =
  [
    sample R.Histogram_kind "instructions per recorded app trace"
      "pift_sweep_trace_insns"
      [ ([], R.log2_histogram sw.Accuracy.trace_insns) ];
    counter "tracker replays across the NIxNT grid" "pift_sweep_replays_total"
      sw.Accuracy.replays;
    counter "apps recorded by the sweep" "pift_sweep_apps_total"
      sw.Accuracy.apps;
  ]

let samples parts =
  List.concat_map
    (function
      | Recording { recorded; mode } -> recording recorded mode
      | Replay { recorded; replay = rp; store } -> replay recorded rp store
      | Range_cache storage -> range_cache storage
      | Hw h -> hw h
      | Sweep sw -> sweep sw)
    parts
