(* Benchmark harness.

   Part 1 — Bechamel microbenchmarks of the core machinery: taint-set
   operations, the PIFT tracker's per-event cost vs. the full-DIFT
   baseline (the paper's "loads and stores are an order of magnitude less
   frequent" argument in cost form), the hardware range-cache lookup, and
   the simulated CPU itself.

   Part 2 — the full reproduction: every table and figure of the paper's
   evaluation section, printed via Pift_eval.Experiments.  This is what
   bench_output.txt is made of. *)

open Bechamel
open Toolkit
module Range = Pift_util.Range
module Rng = Pift_util.Rng
module Tracker = Pift_core.Tracker
module Policy = Pift_core.Policy
module Storage = Pift_core.Storage
module Full_dift = Pift_baseline.Full_dift
module Trace = Pift_trace.Trace
module Recorded = Pift_eval.Recorded

(* --- fixtures ---------------------------------------------------------- *)

let random_ranges n =
  let rng = Rng.create 42 in
  Array.init n (fun _ ->
      Range.of_len (Rng.int rng 0x10000 * 4) (1 + Rng.int rng 64))

let bench_trace =
  lazy
    (Recorded.record
       (Pift_workloads.Malware.lgroot_sized ~rounds:2 ~payload_chars:256))

let event_slice n =
  let r = Lazy.force bench_trace in
  let events = ref [] in
  Trace.iter (fun e -> events := e :: !events) r.Recorded.trace;
  let events = Array.of_list (List.rev !events) in
  Array.sub events 0 (min n (Array.length events))

(* --- microbenchmarks --------------------------------------------------- *)

let test_store_flat_add =
  let ranges = random_ranges 512 in
  Test.make ~name:"store_flat/add-512"
    (Staged.stage (fun () ->
         let s = Pift_core.Store_flat.create () in
         Array.iter (Pift_core.Store_flat.add s) ranges))

let test_store_flat_query =
  let ranges = random_ranges 512 in
  let set = Pift_core.Store_flat.create () in
  Array.iter (Pift_core.Store_flat.add set) ranges;
  let queries = random_ranges 512 in
  Test.make ~name:"store_flat/query-512"
    (Staged.stage (fun () ->
         let hits = ref 0 in
         Array.iter
           (fun q -> if Pift_core.Store_flat.mem_overlap set q then incr hits)
           queries;
         ignore !hits))

let tracker_events = lazy (event_slice 20_000)

(* The instructions of [tracker_events], for full DIFT. *)
let tracker_insns =
  lazy
    (Array.init
       (Array.length (Lazy.force tracker_events))
       (Trace.insn (Lazy.force bench_trace).Recorded.trace))

let test_tracker_observe =
  Test.make ~name:"tracker/observe-20k-events"
    (Staged.stage (fun () ->
         let events = Lazy.force tracker_events in
         let t = Tracker.create ~policy:Policy.default () in
         Tracker.taint_source t ~pid:1 (Range.of_len 0x4000_0000 32);
         Array.iter (Tracker.observe t) events))

let test_dift_observe =
  Test.make ~name:"full_dift/observe-20k-events"
    (Staged.stage (fun () ->
         let events = Lazy.force tracker_events in
         let insns = Lazy.force tracker_insns in
         let t = Full_dift.create () in
         Full_dift.taint_source t ~pid:1 (Range.of_len 0x4000_0000 32);
         Array.iter2 (Full_dift.observe t) insns events))

let test_storage_lookup =
  let storage = Storage.create ~entries:2730 () in
  let rng = Rng.create 7 in
  for _ = 1 to 2000 do
    Storage.insert storage ~pid:1
      (Range.of_len (Rng.int rng 0x10000 * 8) (1 + Rng.int rng 32))
  done;
  let queries = random_ranges 128 in
  Test.make ~name:"storage/lookup-128@2000-entries"
    (Staged.stage (fun () ->
         Array.iter
           (fun q -> ignore (Storage.lookup storage ~pid:1 q))
           queries))

let test_cpu_copy =
  Test.make ~name:"cpu/char_copy-256"
    (Staged.stage (fun () ->
         let mem = Pift_machine.Memory.create () in
         let cpu = Pift_machine.Cpu.create ~sink:(fun _ _ -> ()) mem in
         Pift_runtime.Intrinsics.char_copy cpu ~dst:0x5000_0000
           ~src:0x4000_0000 ~chars:256))

let test_tracker_prov_observe =
  Test.make ~name:"tracker+prov/observe-20k-events-3-labels"
    (Staged.stage (fun () ->
         let events = Lazy.force tracker_events in
         let prov = Pift_core.Provenance.create () in
         let t = Tracker.create ~policy:Policy.default ~prov () in
         Tracker.taint_source ~kind:"IMEI" t ~pid:1
           (Range.of_len 0x4000_0000 32);
         Tracker.taint_source ~kind:"GPS" t ~pid:1 (Range.of_len 0x4000_0100 8);
         Tracker.taint_source ~kind:"Phone" t ~pid:1
           (Range.of_len 0x4000_0200 22);
         Array.iter (Tracker.observe t) events))

let test_trace_io =
  Test.make ~name:"trace_io/save+load-small-app"
    (Staged.stage
       (let recorded =
          lazy
            (Recorded.record
               (Option.get (Pift_workloads.Droidbench.find "StringConcat1")))
        in
        fun () ->
          let r = Lazy.force recorded in
          let path = Filename.temp_file "pift_bench" ".trace" in
          Pift_eval.Trace_io.save r path;
          let loaded = Pift_eval.Trace_io.load path in
          Sys.remove path;
          ignore (Trace.length loaded.Recorded.trace)))

let tests =
  [
    test_store_flat_add;
    test_store_flat_query;
    test_tracker_observe;
    test_dift_observe;
    test_tracker_prov_observe;
    test_storage_lookup;
    test_cpu_copy;
    test_trace_io;
  ]

let run_microbenchmarks () =
  print_endline "######## microbenchmarks ########";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-36s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-36s (no estimate)\n%!" name)
        analysed)
    tests;
  print_newline ()

(* Machine-readable observability snapshot of a reference run, so the
   BENCH_* perf trajectory can be diffed across commits:
   `pift report BENCH_obs.json` renders it. *)
let write_obs_snapshot () =
  let module Obs = Pift_obs in
  let phases = Obs.Flight.create ~capacity:64 () in
  let phase name f =
    Obs.Flight.begin_ phases name;
    Fun.protect ~finally:(fun () -> Obs.Flight.end_ phases name) f
  in
  let recorded =
    phase "record" (fun () ->
        Recorded.record
          (Pift_workloads.Malware.lgroot_sized ~rounds:2 ~payload_chars:256))
  in
  let store = Pift_core.Store.create () in
  let replay =
    phase "replay" (fun () ->
        Recorded.replay ~store ~policy:Policy.default recorded)
  in
  let storage, hw =
    phase "hw-model" (fun () ->
        let storage = Storage.create () in
        ignore
          (Recorded.replay
             ~store:(Pift_core.Storage.store storage)
             ~policy:Policy.default recorded);
        let st = Storage.stats storage in
        let trace = recorded.Recorded.trace in
        ( storage,
          Pift_core.Hw_model.estimate ~total_insns:(Trace.length trace)
            ~loads:(Trace.loads trace) ~stores:(Trace.stores trace)
            ~secondary_hits:st.Storage.secondary_hits () ))
  in
  let samples =
    Pift_eval.Metrics.samples
      [
        Recording { recorded; mode = Pift_dalvik.Vm.Interpreter };
        Replay { recorded; replay; store };
        Range_cache storage;
        Hw hw;
      ]
  in
  let oc = open_out "BENCH_obs.json" in
  Obs.Sink.write_jsonl oc
    (Obs.Sink.snapshot_to_json ~run:"bench:lgroot-2x256"
       ~spans:(Obs.Profile.fold [| phases |]) samples);
  close_out oc;
  print_endline "wrote BENCH_obs.json"

(* Serial vs parallel Fig. 11 sweep: the same grid replayed at jobs=1
   and jobs=4, wall-clocked, with the cell lists compared so the
   speedup never comes at the price of a divergent result.  Emitted as
   BENCH_par.json for the cross-commit perf trajectory.  On a
   single-core container the honest speedup is ~1x — the json carries
   [domains_available] so readers can tell "no parallel hardware" from
   "regression". *)
let write_par_bench () =
  let module Json = Pift_obs.Json in
  let module Accuracy = Pift_eval.Accuracy in
  let apps = Pift_workloads.Droidbench.subset48 in
  let nis = Accuracy.default_nis and nts = Pift_eval.Accuracy.default_nts in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let parallel_jobs = 4 in
  let serial, serial_s =
    time (fun () -> Accuracy.sweep ~nis ~nts ~jobs:1 apps)
  in
  let parallel, parallel_s =
    time (fun () -> Accuracy.sweep ~nis ~nts ~jobs:parallel_jobs apps)
  in
  let identical = serial.Accuracy.cells = parallel.Accuracy.cells in
  let json =
    Json.Obj
      [
        ("bench", Json.String "fig11-sweep");
        ("apps", Json.Int (List.length apps));
        ("grid_cells", Json.Int (List.length nis * List.length nts));
        ("domains_available", Json.Int (Pift_par.Pool.default_jobs ()));
        ("serial_seconds", Json.Float serial_s);
        ("parallel_jobs", Json.Int parallel_jobs);
        ("parallel_seconds", Json.Float parallel_s);
        ( "speedup",
          Json.Float (if parallel_s > 0. then serial_s /. parallel_s else 0.)
        );
        ("identical_cells", Json.Bool identical);
      ]
  in
  let oc = open_out "BENCH_par.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_par.json (serial %.2fs, %d-domain %.2fs, %s)\n"
    serial_s parallel_jobs parallel_s
    (if identical then "cells identical" else "CELLS DIVERGED");
  if not identical then exit 1

(* The taint store on three loads: the tracker replay over the
   reference event stream (best-of-5, the hot single-replay path), a
   fragmented single-set stream (stride-2 taint over a 32 KiB window,
   one interval per other byte — the store's worst case: every op pays
   an O(#intervals) memmove), and a 4-domain Fig. 11 subset sweep (the
   bulk path).  The parallel sweep's cells are compared against a
   serial one — a store that is fast but wrong must fail the bench, not
   ship a number (BENCH_store.json). *)
let write_store_bench () =
  let module Json = Pift_obs.Json in
  let module Store = Pift_core.Store in
  let module Store_flat = Pift_core.Store_flat in
  let module Accuracy = Pift_eval.Accuracy in
  let events = event_slice max_int in
  let replay () =
    let t = Tracker.create ~policy:Policy.default ~store:(Store.create ()) () in
    Tracker.taint_source t ~pid:1 (Range.of_len 0x4000_0000 32);
    Array.iter (Tracker.observe t) events
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let rounds = 5 in
  let best f =
    ignore (time f);
    (* warm-up *)
    let b = ref infinity in
    for _ = 1 to rounds do
      let s = time f in
      if s < !b then b := s
    done;
    !b
  in
  let flat_replay_s = best replay in
  let fragmented_window = 32768 in
  let fragmented_mixed_ops = 50_000 in
  let fragmented () =
    let s = Store_flat.create () in
    let i = ref 0 in
    while !i < fragmented_window do
      Store_flat.add s (Range.of_len (0x4000_0000 + !i) 1);
      i := !i + 2
    done;
    let rng = Rng.create 99 in
    for _ = 1 to fragmented_mixed_ops do
      let r = Range.of_len (0x4000_0000 + Rng.int rng fragmented_window) 1 in
      match Rng.int rng 3 with
      | 0 -> Store_flat.add s r
      | 1 -> Store_flat.remove s r
      | _ -> ignore (Store_flat.mem_overlap s r)
    done;
    ignore (Store_flat.cardinal s)
  in
  let flat_frag_s = best fragmented in
  let apps = Pift_workloads.Droidbench.subset48 in
  let sweep_jobs = 4 in
  let t0 = Unix.gettimeofday () in
  let sweep = Accuracy.sweep ~jobs:sweep_jobs apps in
  let flat_sweep_s = Unix.gettimeofday () -. t0 in
  let serial = Accuracy.sweep ~jobs:1 apps in
  let identical = sweep.Accuracy.cells = serial.Accuracy.cells in
  let n = Array.length events in
  let rate s = if s > 0. then float_of_int n /. s else 0. in
  let json =
    Json.Obj
      [
        ("bench", Json.String "taint-store");
        ("events", Json.Int n);
        ("rounds", Json.Int rounds);
        ("flat_replay_seconds", Json.Float flat_replay_s);
        ("flat_replay_events_per_sec", Json.Float (rate flat_replay_s));
        ( "fragmented_ops",
          Json.Int ((fragmented_window / 2) + fragmented_mixed_ops) );
        ("flat_fragmented_seconds", Json.Float flat_frag_s);
        ("sweep_apps", Json.Int (List.length apps));
        ("sweep_jobs", Json.Int sweep_jobs);
        ("flat_sweep_seconds", Json.Float flat_sweep_s);
        ("identical_cells", Json.Bool identical);
      ]
  in
  let oc = open_out "BENCH_store.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_store.json (replay %.0f ev/s; fragmented %.3fs; sweep \
     %.2fs at %d jobs, %s)\n"
    (rate flat_replay_s) flat_frag_s flat_sweep_s sweep_jobs
    (if identical then "cells identical to the serial sweep"
     else "CELLS DIVERGED");
  if not identical then exit 1

(* Text vs binary trace format on the reference recording: file size,
   load alone, and load+replay throughput, best-of-5 each.  The binary
   replay's verdicts and stats are compared against the text replay's —
   a format that decodes fast but decodes wrong must fail the bench,
   not ship a number (BENCH_traceio.json). *)
let write_traceio_bench () =
  let module Json = Pift_obs.Json in
  let module Trace_io = Pift_eval.Trace_io in
  let recorded = Lazy.force bench_trace in
  let text_path = Filename.temp_file "pift_bench_text" ".trace" in
  let binary_path = Filename.temp_file "pift_bench_bin" ".trace" in
  Trace_io.save ~format:Trace_io.Text recorded text_path;
  Trace_io.save ~format:Trace_io.Binary recorded binary_path;
  let text_bytes = (Unix.stat text_path).Unix.st_size in
  let binary_bytes = (Unix.stat binary_path).Unix.st_size in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let rounds = 9 in
  let best f =
    Gc.full_major ();
    ignore (time f);
    (* warm-up *)
    let b = ref infinity and last = ref None in
    for _ = 1 to rounds do
      let v, s = time f in
      last := Some v;
      if s < !b then b := s
    done;
    (Option.get !last, !b)
  in
  let load path () = Trace_io.load path in
  (* The replay leg is a shared constant in both columns, so the
     comparison stays about the formats. *)
  let load_replay path () =
    Recorded.replay ~policy:Policy.default (Trace_io.load path)
  in
  let _, text_load_s = best (load text_path) in
  let _, binary_load_s = best (load binary_path) in
  let text_replay, text_lr_s = best (load_replay text_path) in
  let binary_replay, binary_lr_s = best (load_replay binary_path) in
  Sys.remove text_path;
  Sys.remove binary_path;
  let identical =
    text_replay.Recorded.verdicts = binary_replay.Recorded.verdicts
    && text_replay.Recorded.flagged = binary_replay.Recorded.flagged
    && text_replay.Recorded.stats = binary_replay.Recorded.stats
  in
  let n = Trace.length recorded.Recorded.trace in
  let rate s = if s > 0. then float_of_int n /. s else 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let json =
    Json.Obj
      [
        ("bench", Json.String "trace-io-formats");
        ("events", Json.Int n);
        ("markers", Json.Int (Array.length recorded.Recorded.markers));
        ("rounds", Json.Int rounds);
        ("text_bytes", Json.Int text_bytes);
        ("binary_bytes", Json.Int binary_bytes);
        ( "size_ratio_text_over_binary",
          Json.Float (ratio (float_of_int text_bytes) (float_of_int binary_bytes))
        );
        ("text_load_seconds", Json.Float text_load_s);
        ("binary_load_seconds", Json.Float binary_load_s);
        ("text_load_events_per_sec", Json.Float (rate text_load_s));
        ("binary_load_events_per_sec", Json.Float (rate binary_load_s));
        ( "load_speedup_binary_over_text",
          Json.Float (ratio text_load_s binary_load_s) );
        ("text_load_replay_seconds", Json.Float text_lr_s);
        ("binary_load_replay_seconds", Json.Float binary_lr_s);
        ("text_load_replay_events_per_sec", Json.Float (rate text_lr_s));
        ("binary_load_replay_events_per_sec", Json.Float (rate binary_lr_s));
        ( "load_replay_speedup_binary_over_text",
          Json.Float (ratio text_lr_s binary_lr_s) );
        ("identical_verdicts", Json.Bool identical);
      ]
  in
  let oc = open_out "BENCH_traceio.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_traceio.json (%d events; size %.1fx smaller; load: text \
     %.0f ev/s, binary %.0f ev/s, %.2fx; load+replay %.2fx, %s)\n"
    n
    (ratio (float_of_int text_bytes) (float_of_int binary_bytes))
    (rate text_load_s) (rate binary_load_s)
    (ratio text_load_s binary_load_s)
    (ratio text_lr_s binary_lr_s)
    (if identical then "verdicts identical" else "VERDICTS DIVERGED");
  if not identical then exit 1

(* Tracker replay with the provenance sidecar off vs on, over the same
   event stream (best-of-5): the sidecar's budget is "option-guarded,
   zero when off; bounded per-label cost when on".  Verdict equality is
   asserted via a flow-graph build whose every path must reach a source
   (the union invariant, checked here on real data, not just in tests).
   Emitted as BENCH_prov.json for the cross-commit trajectory. *)
let write_prov_bench () =
  let module Json = Pift_obs.Json in
  let module Provenance = Pift_core.Provenance in
  let recorded = Lazy.force bench_trace in
  let events = event_slice max_int in
  let sources =
    [
      ("IMEI", Range.of_len 0x4000_0000 32);
      ("Location", Range.of_len 0x4000_0100 8);
      ("Phone", Range.of_len 0x4000_0200 22);
    ]
  in
  let replay ~with_prov () =
    let prov = if with_prov then Some (Provenance.create ()) else None in
    let t = Tracker.create ~policy:Policy.default ?prov () in
    List.iter
      (fun (kind, r) -> Tracker.taint_source ~kind t ~pid:1 r)
      sources;
    Array.iter (Tracker.observe t) events
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let rounds = 5 in
  let best f =
    ignore (time f);
    (* warm-up *)
    let b = ref infinity in
    for _ = 1 to rounds do
      let s = time f in
      if s < !b then b := s
    done;
    !b
  in
  let off_s = best (replay ~with_prov:false) in
  let on_s = best (replay ~with_prov:true) in
  (* Graph build on the reference recording: cost of the backward walk
     plus the structural check that every flagged sink reaches a source. *)
  let t0 = Unix.gettimeofday () in
  let g, sinks =
    Pift_eval.Explain.flow_graph ~policy:Policy.default recorded
  in
  let graph_s = Unix.gettimeofday () -. t0 in
  let rooted =
    List.for_all
      (fun (sf : Pift_eval.Explain.sink_flow) ->
        sf.Pift_eval.Explain.sf_paths <> []
        && List.for_all
             (fun (p : Pift_eval.Explain.path) ->
               match p.Pift_eval.Explain.p_nodes with
               | { Provenance.Graph.kind = Provenance.Graph.N_source _; _ }
                 :: _ ->
                   true
               | _ -> false)
             sf.Pift_eval.Explain.sf_paths)
      sinks
  in
  let n = Array.length events in
  let rate s = if s > 0. then float_of_int n /. s else 0. in
  let overhead_pct =
    if off_s > 0. then 100. *. (on_s -. off_s) /. off_s else 0.
  in
  let json =
    Json.Obj
      [
        ("bench", Json.String "tracker-provenance-sidecar");
        ("events", Json.Int n);
        ("rounds", Json.Int rounds);
        ("labels", Json.Int (List.length sources));
        ("prov_off_seconds", Json.Float off_s);
        ("prov_on_seconds", Json.Float on_s);
        ("prov_off_events_per_sec", Json.Float (rate off_s));
        ("prov_on_events_per_sec", Json.Float (rate on_s));
        ("overhead_pct", Json.Float overhead_pct);
        ("graph_build_seconds", Json.Float graph_s);
        ("graph_nodes", Json.Int (Provenance.Graph.node_count g));
        ("graph_edges", Json.Int (Provenance.Graph.edge_count g));
        ("flagged_sinks", Json.Int (List.length sinks));
        ("all_paths_rooted_at_sources", Json.Bool rooted);
      ]
  in
  let oc = open_out "BENCH_prov.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_prov.json (sidecar off %.0f ev/s, on %.0f ev/s, %.1f%% \
     overhead; graph %d nodes/%d edges in %.2fs, %s)\n"
    (rate off_s) (rate on_s) overhead_pct
    (Provenance.Graph.node_count g)
    (Provenance.Graph.edge_count g)
    graph_s
    (if rooted then "all paths rooted" else "UNROOTED PATH");
  if not rooted then exit 1

(* Service-engine ingest throughput: the same recording replicated as
   32 tenants, interleaved through the engine at shard counts 1/2/4,
   plus a single-tenant run for the per-stream floor.  Per-tenant
   verdicts are gated against isolated replays — the bench fails on a
   correctness divergence, never on speed.  On a single-core container
   multi-shard throughput is honestly ~1x; [domains_available] lets
   readers tell that apart from a regression (BENCH_par precedent). *)
let write_service_bench () =
  let module Json = Pift_obs.Json in
  let module Engine = Pift_service.Engine in
  let module Ingest = Pift_service.Ingest in
  let recorded = Lazy.force bench_trace in
  let policy = Policy.default in
  let tenants = 32 in
  let events_per_tenant = Trace.length recorded.Recorded.trace in
  let isolated = Recorded.replay ~policy recorded in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run_engine ~shards ~tenants =
    Engine.with_engine ~shards ~policy (fun eng ->
        let sources =
          List.init tenants (fun i ->
              Ingest.of_recorded ~pid:(Ingest.tenant_pid i) recorded)
        in
        let (), seconds = time (fun () -> Ingest.run eng sources) in
        let identical =
          List.for_all
            (fun i ->
              match Engine.snapshot_tenant eng ~pid:(Ingest.tenant_pid i) with
              | None -> false
              | Some ts ->
                  List.map
                    (fun (v : Engine.verdict) ->
                      (v.Engine.v_kind, v.Engine.v_flagged))
                    ts.Engine.ts_verdicts
                  = List.map
                      (fun (v : Recorded.verdict) ->
                        (v.Recorded.kind, v.Recorded.flagged))
                      isolated.Recorded.verdicts
                  && ts.Engine.ts_stats = isolated.Recorded.stats)
            (List.init tenants Fun.id)
        in
        (seconds, identical))
  in
  let total_events = tenants * events_per_tenant in
  let rate s = if s > 0. then float_of_int total_events /. s else 0. in
  let single_s, single_ok = run_engine ~shards:1 ~tenants:1 in
  let shard_counts = [ 1; 2; 4 ] in
  let multi = List.map (fun s -> (s, run_engine ~shards:s ~tenants)) shard_counts in
  let all_identical =
    single_ok && List.for_all (fun (_, (_, ok)) -> ok) multi
  in
  let json =
    Json.Obj
      [
        ("bench", Json.String "service-ingest");
        ("tenants", Json.Int tenants);
        ("events_per_tenant", Json.Int events_per_tenant);
        ("events_total", Json.Int total_events);
        ("domains_available", Json.Int (Pift_par.Pool.default_jobs ()));
        ( "single_tenant_events_per_sec",
          Json.Float
            (if single_s > 0. then float_of_int events_per_tenant /. single_s
             else 0.) );
        ( "shard_runs",
          Json.List
            (List.map
               (fun (shards, (seconds, _)) ->
                 Json.Obj
                   [
                     ("shards", Json.Int shards);
                     ("seconds", Json.Float seconds);
                     ("events_per_sec", Json.Float (rate seconds));
                   ])
               multi) );
        ("verdicts_identical", Json.Bool all_identical);
      ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun (shards, (seconds, _)) ->
      Printf.printf "service: %d shard(s), %d tenants, %.2fs (%.0f ev/s)\n"
        shards tenants seconds (rate seconds))
    multi;
  Printf.printf "wrote BENCH_service.json (%s)\n"
    (if all_identical then "verdicts identical" else "VERDICTS DIVERGED");
  if not all_identical then exit 1

(* Durability cost: snapshot write latency and size, restore (load +
   rebuild) latency, and resume throughput after a mid-stream restore —
   gated on the resumed state matching the uninterrupted run's exactly,
   so the number can never ship with a broken recovery path
   (BENCH_snapshot.json). *)
let write_snapshot_bench () =
  let module Json = Pift_obs.Json in
  let module Engine = Pift_service.Engine in
  let module Ingest = Pift_service.Ingest in
  let module Snapshot = Pift_service.Snapshot in
  let recorded = Lazy.force bench_trace in
  let policy = Policy.default in
  let tenants = 16 and shards = 4 in
  let events_per_tenant = Trace.length recorded.Recorded.trace in
  let items_per_tenant =
    events_per_tenant + Array.length recorded.Recorded.markers
  in
  let mk_sources () =
    List.init tenants (fun i ->
        Ingest.of_recorded ~pid:(Ingest.tenant_pid i) recorded)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let best_of n f =
    List.fold_left
      (fun best _ -> min best (snd (time f)))
      infinity
      (List.init n Fun.id)
  in
  let tenant_matches (ts : Engine.tenant_snapshot)
      (ref_ts : Engine.tenant_snapshot) =
    ts.Engine.ts_verdicts = ref_ts.Engine.ts_verdicts
    && ts.Engine.ts_stats = ref_ts.Engine.ts_stats
    && ts.Engine.ts_tainted_bytes = ref_ts.Engine.ts_tainted_bytes
    && ts.Engine.ts_ranges = ref_ts.Engine.ts_ranges
  in
  let tmp = Filename.temp_file "pift_bench" ".piftsnap" in
  let mid = Filename.temp_file "pift_bench_mid" ".piftsnap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ tmp; mid ])
    (fun () ->
      (* uninterrupted run: the reference state, and the subject of the
         snapshot/restore latency measurements *)
      let reference, snapshot_s, snapshot_bytes, restore_s =
        Engine.with_engine ~shards ~policy ~with_origins:true (fun eng ->
            Ingest.run eng (mk_sources ());
            let reference =
              List.init tenants (fun i ->
                  Option.get
                    (Engine.snapshot_tenant eng ~pid:(Ingest.tenant_pid i)))
            in
            let snapshot_s = best_of 5 (fun () -> Snapshot.save eng tmp) in
            let snapshot_bytes = (Unix.stat tmp).Unix.st_size in
            let restore_s =
              best_of 3 (fun () ->
                  let snap = Snapshot.load tmp in
                  Engine.with_engine ~shards ~policy ~with_origins:true
                    (fun e2 -> Snapshot.restore_tenants e2 snap))
            in
            (reference, snapshot_s, snapshot_bytes, restore_s))
      in
      (* capture a mid-stream snapshot (first segment boundary at half
         the items), then restore it and resume to completion *)
      Engine.with_engine ~shards ~policy ~with_origins:true (fun eng ->
          let sources = mk_sources () in
          let saved = ref false in
          let on_idle () =
            if not !saved then begin
              saved := true;
              Snapshot.save
                ~sources:(Snapshot.source_entries sources)
                eng mid
            end
          in
          Ingest.run ~segment:(tenants * items_per_tenant / 2) ~on_idle eng
            sources);
      let snap = Snapshot.load mid in
      let snap_items =
        List.fold_left
          (fun acc (se : Snapshot.source_entry) -> acc + se.Snapshot.se_cursor)
          0 snap.Snapshot.sources
      in
      let resumed_items = (tenants * items_per_tenant) - snap_items in
      let resume_ok, resume_s =
        Engine.with_engine ~shards ~policy ~with_origins:true (fun eng ->
            Snapshot.restore_tenants eng snap;
            let sources = mk_sources () in
            List.iter
              (fun (s : Ingest.source) ->
                let se =
                  List.find
                    (fun (se : Snapshot.source_entry) ->
                      se.Snapshot.se_pid = s.Ingest.src_pid)
                    snap.Snapshot.sources
                in
                Ingest.skip s se.Snapshot.se_cursor)
              sources;
            let (), s = time (fun () -> Ingest.run eng sources) in
            let ok =
              List.for_all
                (fun i ->
                  match
                    Engine.snapshot_tenant eng ~pid:(Ingest.tenant_pid i)
                  with
                  | None -> false
                  | Some ts -> tenant_matches ts (List.nth reference i))
                (List.init tenants Fun.id)
            in
            (ok, s))
      in
      let resume_rate =
        if resume_s > 0. then float_of_int resumed_items /. resume_s else 0.
      in
      let json =
        Json.Obj
          [
            ("bench", Json.String "snapshot");
            ("tenants", Json.Int tenants);
            ("shards", Json.Int shards);
            ("events_per_tenant", Json.Int events_per_tenant);
            ("items_total", Json.Int (tenants * items_per_tenant));
            ("snapshot_seconds", Json.Float snapshot_s);
            ("snapshot_bytes", Json.Int snapshot_bytes);
            ("restore_seconds", Json.Float restore_s);
            ("resume_items", Json.Int resumed_items);
            ("resume_seconds", Json.Float resume_s);
            ("resume_items_per_sec", Json.Float resume_rate);
            ("resumed_state_identical", Json.Bool resume_ok);
          ]
      in
      let oc = open_out "BENCH_snapshot.json" in
      output_string oc (Json.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf
        "snapshot: %d tenants, write %.1fms (%d bytes), restore %.1fms, \
         resume %d items at %.0f items/s\n"
        tenants (snapshot_s *. 1000.) snapshot_bytes (restore_s *. 1000.)
        resumed_items resume_rate;
      Printf.printf "wrote BENCH_snapshot.json (%s)\n"
        (if resume_ok then "resumed state identical"
         else "RESUMED STATE DIVERGED");
      if not resume_ok then exit 1)

let () =
  (* `bench store` / `bench prov` run only that stage — the cheap CI
     artifacts — while a bare `bench` runs the whole harness. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "store" then
    write_store_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "prov" then
    write_prov_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "traceio" then
    write_traceio_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "service" then
    write_service_bench ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "snapshot" then
    write_snapshot_bench ()
  else begin
    run_microbenchmarks ();
    write_obs_snapshot ();
    write_par_bench ();
    write_store_bench ();
    write_traceio_bench ();
    write_prov_bench ();
    write_service_bench ();
    write_snapshot_bench ();
    print_endline
      "######## paper reproduction (every table & figure) ########";
    Pift_eval.Experiments.run_all ~jobs:(Pift_par.Pool.default_jobs ())
      Format.std_formatter;
    Format.print_flush ()
  end
