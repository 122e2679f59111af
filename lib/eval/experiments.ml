module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Storage = Pift_core.Storage
module Store = Pift_core.Store
module Hw_model = Pift_core.Hw_model
module Trace = Pift_trace.Trace
module App = Pift_workloads.App
module Droidbench = Pift_workloads.Droidbench
module Malware = Pift_workloads.Malware

let lgroot_recording =
  let memo = lazy (Recorded.record Malware.lgroot) in
  fun () -> Lazy.force memo

let header ppf id = Format.fprintf ppf "@.######## %s ########@.@." id

(* --- Trace statistics -------------------------------------------------- *)

let fig2 ppf =
  let stats = Tracestats.analyse (lgroot_recording ()) in
  let r = lgroot_recording () in
  Format.fprintf ppf "trace: %d instructions, %d loads, %d stores@."
    (Trace.length r.Recorded.trace)
    (Trace.loads r.Recorded.trace)
    (Trace.stores r.Recorded.trace);
  Tracestats.render_fig2 stats ppf ()

let fig12 ppf =
  Tracestats.render_fig12 (Tracestats.analyse (lgroot_recording ())) ppf ()

let fig13 ppf =
  Tracestats.render_fig13 (Tracestats.analyse (lgroot_recording ())) ppf ()

(* --- Static analyses --------------------------------------------------- *)

let table1 ppf = Table1.render (Table1.measure_all ()) ppf ()

let fig10 ppf =
  Fig10.render
    ~title:
      "Fig. 10a — top-30 bytecodes, applications corpus (calibrated \
       synthetic)"
    (Fig10.applications ()) ppf ();
  Fig10.render
    ~title:
      "Fig. 10b — top-30 bytecodes, system-library corpus (calibrated \
       synthetic)"
    (Fig10.system_libraries ()) ppf ();
  Fig10.render ~title:"(extra) top-30 bytecodes of this repo's own suite"
    (Fig10.droidbench_suite ()) ppf ()

(* --- Accuracy ----------------------------------------------------------- *)

let fig11 ?rings ?on_cell ?(jobs = 1) ppf =
  let sweep =
    Accuracy.sweep ?rings ?on_cell ~jobs Droidbench.subset48
  in
  Accuracy.render sweep ppf ();
  let report (ni, nt) =
    let c = Accuracy.cell sweep ~ni ~nt in
    Format.fprintf ppf
      "at (NI=%d, NT=%d): accuracy %.1f%%, FP %.0f%%, FN %.0f%% (tp=%d fp=%d \
       tn=%d fn=%d)@."
      ni nt
      (100. *. Accuracy.accuracy c)
      (100. *. Accuracy.fp_rate c)
      (100. *. Accuracy.fn_rate c)
      c.Accuracy.tp c.Accuracy.fp c.Accuracy.tn c.Accuracy.fn
  in
  List.iter report [ (13, 3); (18, 3); (3, 2) ];
  let missed =
    Accuracy.misclassified ~policy:Policy.default Droidbench.all
  in
  Format.fprintf ppf "misclassified at %s over all 57 apps: %s@."
    (Policy.to_string Policy.default)
    (if missed = [] then "none"
     else
       String.concat ", "
         (List.map
            (fun (name, kind) ->
              name
              ^ match kind with
                | `False_negative -> " (FN)"
                | `False_positive -> " (FP)")
            missed))

let malware ppf =
  Format.fprintf ppf
    "malware detection at the paper's operating point %s:@."
    (Policy.to_string Policy.malware_catching);
  let detected =
    List.filter
      (fun (app : App.t) ->
        let r = Recorded.record app in
        let rep = Recorded.replay ~policy:Policy.malware_catching r in
        Format.fprintf ppf "  %-14s %s@." app.App.name
          (if rep.Recorded.flagged then "DETECTED" else "missed");
        rep.Recorded.flagged)
      Malware.all
  in
  Format.fprintf ppf "detected %d / %d@." (List.length detected)
    (List.length Malware.all)

(* --- Overhead ----------------------------------------------------------- *)

(* The 200-replay grid backs both Fig. 14 and Fig. 17; compute it once
   (the first caller's job count — and rings, if tracing — drives the
   pool; the points are jobs-independent, so the memo stays coherent). *)
let lgroot_grid =
  let memo = ref None in
  fun ?rings ~jobs () ->
    match !memo with
    | Some grid -> grid
    | None ->
        let grid = Overhead.grid ?rings ~jobs (lgroot_recording ()) in
        memo := Some grid;
        grid

let fig14 ?rings ?(jobs = 1) ppf =
  Overhead.render_grid
    ~title:"Fig. 14 — maximum size of tainted addresses (bytes) vs (NI, NT)"
    ~metric:(fun p -> p.Overhead.max_tainted_bytes)
    (lgroot_grid ?rings ~jobs ()) ppf ()

let fig17 ?rings ?(jobs = 1) ppf =
  Overhead.render_grid
    ~title:"Fig. 17 — maximum number of distinct ranges vs (NI, NT)"
    ~metric:(fun p -> p.Overhead.max_ranges)
    (lgroot_grid ?rings ~jobs ()) ppf ()

let series_params = [ (5, 3); (10, 3); (15, 3); (20, 3); (10, 2); (20, 1) ]

let fig15 ppf =
  let recorded = lgroot_recording () in
  let curves =
    List.map
      (fun (ni, nt) ->
        ( Printf.sprintf "(%d,%d)" ni nt,
          fst (Overhead.series recorded ~ni ~nt) ))
      series_params
  in
  Overhead.render_series
    ~title:"Fig. 15 — size of tainted addresses (bytes) over time"
    ~log_scale:true curves ppf ()

let fig16 ppf =
  let recorded = lgroot_recording () in
  let curves =
    List.map
      (fun (ni, nt) ->
        ( Printf.sprintf "(%d,%d)" ni nt,
          snd (Overhead.series recorded ~ni ~nt) ))
      series_params
  in
  Overhead.render_series
    ~title:"Fig. 16 — cumulative tainting+untainting operations over time"
    ~log_scale:true curves ppf ()

let untaint_figs ?rings ?(jobs = 1) ~metric ~title ppf =
  let effects =
    Overhead.untaint_effect ?rings ~jobs (lgroot_recording ())
      ~nis:[ 5; 10; 15; 20 ] ~nt:3
  in
  Format.fprintf ppf "@[<v>== %s ==@," title;
  Format.fprintf ppf "%8s %16s %16s %8s@," "NI" "untainting on"
    "untainting off" "ratio";
  List.iter
    (fun (ni, on, off) ->
      let a = metric on and b = metric off in
      Format.fprintf ppf "%8d %16d %16d %7.1fx@," ni a b
        (if a = 0 then 0. else float_of_int b /. float_of_int a))
    effects;
  Format.fprintf ppf "@]@."

let fig18 ?rings ?jobs ppf =
  untaint_figs ?rings ?jobs
    ~metric:(fun p -> p.Overhead.max_tainted_bytes)
    ~title:
      "Fig. 18 — effect of untainting on the maximum size of tainted \
       addresses (bytes), NT=3"
    ppf

let fig19 ?rings ?jobs ppf =
  untaint_figs ?rings ?jobs
    ~metric:(fun p -> p.Overhead.max_ranges)
    ~title:
      "Fig. 19 — effect of untainting on the maximum number of distinct \
       ranges, NT=3"
    ppf

(* --- Hardware model ----------------------------------------------------- *)

let hw ppf =
  let recorded = lgroot_recording () in
  let storage =
    Storage.create ~entries:2730 ~eviction:Storage.Lru_writeback ()
  in
  let store = Storage.store storage in
  let replay = Recorded.replay ~store ~policy:Policy.default recorded in
  let s = Storage.stats storage in
  Format.fprintf ppf
    "@[<v>== PIFT hardware module on the LGRoot trace (32 KiB range cache, \
     LRU writeback) ==@,\
     flagged: %b@,\
     lookups: %d (hits %d, secondary hits %d)@,\
     insertions: %d, evictions: %d, writebacks: %d@,\
     max occupancy: %d / 2730 entries@,@,"
    replay.Recorded.flagged s.Storage.lookups s.Storage.hits
    s.Storage.secondary_hits s.Storage.insertions s.Storage.evictions
    s.Storage.writebacks s.Storage.max_occupancy;
  let report =
    Hw_model.estimate
      ~total_insns:(Trace.length recorded.Recorded.trace)
      ~loads:(Trace.loads recorded.Recorded.trace)
      ~stores:(Trace.stores recorded.Recorded.trace)
      ~secondary_hits:s.Storage.secondary_hits ()
  in
  Format.fprintf ppf "%a@,@]@." Hw_model.pp_report report

let ablation_storage ppf =
  let recorded = lgroot_recording () in
  Format.fprintf ppf
    "@[<v>== Ablation — taint-storage capacity and eviction policy \
     (LGRoot, %s) ==@,"
    (Policy.to_string Policy.default);
  Format.fprintf ppf "%10s %16s %10s %10s %10s %10s %10s@," "entries"
    "eviction" "flagged" "evict" "drop" "2nd-hits" "overhead";
  let run entries eviction name =
    let storage = Storage.create ~entries ~eviction () in
    let replay =
      Recorded.replay ~store:(Storage.store storage) ~policy:Policy.default
        recorded
    in
    let s = Storage.stats storage in
    let report =
      Hw_model.estimate
        ~total_insns:(Trace.length recorded.Recorded.trace)
        ~loads:(Trace.loads recorded.Recorded.trace)
        ~stores:(Trace.stores recorded.Recorded.trace)
        ~secondary_hits:s.Storage.secondary_hits ()
    in
    Format.fprintf ppf "%10d %16s %10b %10d %10d %10d %9.2f%%@," entries name
      replay.Recorded.flagged s.Storage.evictions s.Storage.drops
      s.Storage.secondary_hits report.Hw_model.pift_overhead_pct
  in
  List.iter
    (fun entries ->
      run entries Storage.Lru_writeback "lru-writeback";
      run entries Storage.Drop "drop")
    [ 16; 64; 256; 2730 ];
  Format.fprintf ppf "@]@."

let ablation_granularity ppf =
  Format.fprintf ppf
    "@[<v>== Ablation — arbitrary ranges vs fixed-granularity block \
     tagging (DroidBench subset, %s) ==@,"
    (Policy.to_string Policy.default);
  Format.fprintf ppf "%16s %10s %6s %6s %16s@," "granularity" "accuracy" "FP"
    "FN" "max tainted (B)";
  let eval granularity name =
    let confusion = ref { Accuracy.tp = 0; fp = 0; tn = 0; fn = 0 } in
    let max_bytes = ref 0 in
    List.iter
      (fun (app : App.t) ->
        let recorded = Recorded.record app in
        let storage = Storage.create ~entries:8192 ~granularity () in
        let replay =
          Recorded.replay ~store:(Storage.store storage)
            ~policy:Policy.default recorded
        in
        max_bytes :=
          max !max_bytes
            replay.Recorded.stats.Tracker.max_tainted_bytes;
        let c = !confusion in
        confusion :=
          (match (app.App.leaky, replay.Recorded.flagged) with
          | true, true -> { c with Accuracy.tp = c.Accuracy.tp + 1 }
          | true, false -> { c with Accuracy.fn = c.Accuracy.fn + 1 }
          | false, true -> { c with Accuracy.fp = c.Accuracy.fp + 1 }
          | false, false -> { c with Accuracy.tn = c.Accuracy.tn + 1 }))
      Droidbench.subset48;
    let c = !confusion in
    Format.fprintf ppf "%16s %9.1f%% %6d %6d %16d@," name
      (100. *. Accuracy.accuracy c)
      c.Accuracy.fp c.Accuracy.fn !max_bytes
  in
  eval None "ranges";
  eval (Some 2) "4-byte blocks";
  eval (Some 6) "64-byte blocks";
  Format.fprintf ppf "@]@."

(* --- Extensions ---------------------------------------------------------- *)

let evasion ppf =
  Format.fprintf ppf
    "@[<v>== Evasion (§4.2) and the compiler countermeasure (§7) ==@,\
     The attack stretches each load→store pair with %d dummy instructions;@,\
     the hardened runtime runs native fragments through dead-code \
     elimination and store relocation first (Evasion2's dummy block is \
     live, so only relocation helps).@,@,"
    Pift_workloads.Evasion.dummy_block_length;
  Format.fprintf ppf "%-18s %14s %14s %12s@," "app" "PIFT (13,3)"
    "PIFT (20,10)" "full DIFT";
  List.iter
    (fun (app : App.t) ->
      let r = Recorded.record app in
      let p13 = Recorded.replay ~policy:Policy.default r in
      let p20 =
        Recorded.replay ~policy:(Policy.make ~ni:20 ~nt:10 ()) r
      in
      let d = Recorded.replay_dift r in
      let v b = if b then "DETECTED" else "missed" in
      Format.fprintf ppf "%-18s %14s %14s %12s@," app.App.name
        (v p13.Recorded.flagged) (v p20.Recorded.flagged)
        (v d.Recorded.dift_flagged))
    Pift_workloads.Evasion.all;
  Format.fprintf ppf "@]@."

let ablation_jit ppf =
  Format.fprintf ppf
    "@[<v>== Ablation — interpreter vs JIT/AOT compilation (§4.1) ==@,\
     JIT mode removes per-bytecode fetch/dispatch and dead decode work; \
     virtual registers stay in memory.@,@,";
  let confusion mode =
    List.fold_left
      (fun c (app : App.t) ->
        let r = Recorded.record ~mode app in
        let f =
          (Recorded.replay ~policy:Policy.default r).Recorded.flagged
        in
        match (app.App.leaky, f) with
        | true, true -> { c with Accuracy.tp = c.Accuracy.tp + 1 }
        | true, false -> { c with Accuracy.fn = c.Accuracy.fn + 1 }
        | false, true -> { c with Accuracy.fp = c.Accuracy.fp + 1 }
        | false, false -> { c with Accuracy.tn = c.Accuracy.tn + 1 })
      { Accuracy.tp = 0; fp = 0; tn = 0; fn = 0 }
      Droidbench.subset48
  in
  let report name mode =
    let c = confusion mode in
    Format.fprintf ppf
      "%-12s accuracy %.1f%% (tp=%d fp=%d tn=%d fn=%d) at %s@," name
      (100. *. Accuracy.accuracy c)
      c.Accuracy.tp c.Accuracy.fp c.Accuracy.tn c.Accuracy.fn
      (Policy.to_string Policy.default)
  in
  report "interpreter" Pift_dalvik.Vm.Interpreter;
  report "jit" Pift_dalvik.Vm.Jit;
  let sample = Option.get (Droidbench.find "StringConcat1") in
  let li =
    Trace.length
      (Recorded.record ~mode:Pift_dalvik.Vm.Interpreter sample).Recorded.trace
  in
  let lj =
    Trace.length
      (Recorded.record ~mode:Pift_dalvik.Vm.Jit sample).Recorded.trace
  in
  Format.fprintf ppf
    "@,StringConcat1 executes %d instructions interpreted, %d JITed@,\
     (the stream is dominated by framework copy loops, which compilation@,\
     does not change — the paper's argument for JIT-insensitivity;@,\
     note the error set shifts: distances compress by the ~2-instruction@,\
     dispatch overhead, so the hard implicit flow is caught while one@,\
     benign register-cleansing pattern turns into a false positive).@]@."
    li lj

let multiproc ppf =
  Format.fprintf ppf
    "@[<v>== Multi-process tracking: PID tags and context switches ==@,";
  (* one machine, two processes sharing frame addresses *)
  let module Tracker = Pift_core.Tracker in
  let module Manager = Pift_runtime.Manager in
  let module Cpu = Pift_machine.Cpu in
  let tracker =
    Tracker.create ~policy:Policy.default ~store:(Store.create ()) ()
  in
  let storage = Storage.create ~entries:64 () in
  let hw = Tracker.create ~policy:Policy.default ~store:(Storage.store storage) () in
  let env = Pift_runtime.Env.create ~sink:(fun _ e ->
      Tracker.observe tracker e;
      Tracker.observe hw e) () in
  Manager.add_tracker env.Pift_runtime.Env.manager ~name:"pift"
    ~taint:(Tracker.taint_source tracker)
    ~check:(Tracker.is_tainted tracker);
  Manager.add_tracker env.Pift_runtime.Env.manager ~name:"pift-hw"
    ~taint:(Tracker.taint_source hw)
    ~check:(Tracker.is_tainted hw);
  let run_as pid (app : App.t) =
    Cpu.set_pid env.Pift_runtime.Env.cpu pid;
    Storage.context_switch storage;
    let vm =
      Pift_dalvik.Vm.create
        ~natives:(Pift_runtime.Api.registry @ app.App.natives)
        env (app.App.program ())
    in
    match Pift_dalvik.Vm.run vm with `Ok | `Uncaught _ -> ()
  in
  run_as 1 (Option.get (Droidbench.find "StringConcat1"));
  run_as 2 (Option.get (Droidbench.find "BenignConstant1"));
  let verdicts = Manager.verdicts env.Pift_runtime.Env.manager in
  List.iter
    (fun (v : Manager.verdict) ->
      Format.fprintf ppf "pid %d sink %-5s -> %s@," v.Manager.pid
        v.Manager.sink
        (String.concat ", "
           (List.map
              (fun (n, b) -> Printf.sprintf "%s:%s" n (if b then "TAINTED" else "clean"))
              v.Manager.tainted)))
    verdicts;
  let s = Storage.stats storage in
  Format.fprintf ppf
    "the leaky pid-1 run is flagged; pid 2 reuses the same frame \
     addresses@,\
     yet stays clean thanks to the per-entry PID tag (Fig. 6).@,\
     context-switch writebacks: %d@,@]@."
    s.Storage.writebacks

(* Drive a Deferred tracker over a recording: markers interleaved at
   their sequence points, a background drain tick every [period] events. *)
let deferred_run recorded ~buffer_size ~drain_batch ~period =
  let module Deferred = Pift_core.Deferred in
  let d =
    Deferred.create ~policy:Policy.default ~buffer_size ~drain_batch ()
  in
  let flagged = ref false in
  let on_marker _ = function
    | Recorded.Source { range; _ } ->
        Deferred.taint_source d ~pid:recorded.Recorded.pid range
    | Recorded.Sink { ranges; _ } ->
        if
          List.exists
            (fun r -> Deferred.check d ~pid:recorded.Recorded.pid r)
            ranges
        then flagged := true
  in
  let n = ref 0 in
  let observe e =
    Deferred.observe d e;
    incr n;
    if !n mod period = 0 then Deferred.tick d
  in
  Recorded.interleave recorded ~observe ~on_marker;
  (!flagged, Deferred.dropped d)

let deferred ppf =
  Format.fprintf ppf
    "@[<v>== Deferred (off-critical-path) tracking: the buffered \
     load/store stream of section 1 ==@,\
     The FIFO drains [batch] events every [period] instructions; sink \
     checks stall until the buffer is empty.@,@,";
  Format.fprintf ppf "%10s %8s %10s %10s %12s@," "buffer" "batch" "period"
    "flagged" "dropped";
  let recorded = lgroot_recording () in
  List.iter
    (fun (buffer_size, drain_batch, period) ->
      let flagged, dropped =
        deferred_run recorded ~buffer_size ~drain_batch ~period
      in
      Format.fprintf ppf "%10d %8d %10d %10b %12d@," buffer_size drain_batch
        period flagged dropped)
    [
      (4096, 256, 256);
      (4096, 1024, 1024);
      (1024, 64, 1024);
      (256, 32, 2048);
      (64, 16, 65536);
    ];
  Format.fprintf ppf
    "@,losing events never creates false positives, only missed windows;@,\
     with a drain that keeps up, deferred verdicts equal the online ones.@]@."

let fig2_multi ppf =
  Format.fprintf ppf
    "@[<v>== Fig. 2 across applications (the paper analysed \"a number of \
     app executions\") ==@,";
  Format.fprintf ppf "%-16s %10s %8s %8s %10s %10s@," "app" "insns"
    "loads" "stores" "cdf(5)" "cdf(10)";
  let study (name, recorded) =
    let stats = Tracestats.analyse recorded in
    let h = Tracestats.load_store_distance stats in
    Format.fprintf ppf "%-16s %10d %8d %8d %9.2f%% %9.2f%%@," name
      (Trace.length recorded.Recorded.trace)
      (Trace.loads recorded.Recorded.trace)
      (Trace.stores recorded.Recorded.trace)
      (100. *. Pift_util.Histogram.cdf h 5)
      (100. *. Tracestats.coverage_within stats 10)
  in
  let record app = Recorded.record app in
  List.iter study
    [
      ("LGRoot", lgroot_recording ());
      ("Browser", record Pift_workloads.Browser.app);
      ("StringConcat1", record (Option.get (Droidbench.find "StringConcat1")));
      ("ImplicitFlow1", record (Option.get (Droidbench.find "ImplicitFlow1")));
      ("Loop2", record (Option.get (Droidbench.find "Loop2")));
    ];
  Format.fprintf ppf
    "@,every workload shows the same structure: the overwhelming mass of@,\
     store-to-last-load distances sits within 10 instructions.@]@."

let extended ppf =
  Format.fprintf ppf
    "@[<v>== Extended suite — patterns beyond DroidBench 1.1 ==@,";
  Format.fprintf ppf "%-20s %-26s %7s %12s %12s@," "app" "category" "label"
    "PIFT (13,3)" "full DIFT";
  let correct = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let r = Recorded.record a in
      let p = Recorded.replay ~policy:Policy.default r in
      let d = Recorded.replay_dift r in
      if p.Recorded.flagged = a.App.leaky then incr correct;
      Format.fprintf ppf "%-20s %-26s %7s %12s %12s@," a.App.name
        a.App.category
        (if a.App.leaky then "leaky" else "benign")
        (if p.Recorded.flagged then "DETECTED" else "clean")
        (if d.Recorded.dift_flagged then "DETECTED" else "clean"))
    Pift_workloads.Extended.all;
  Format.fprintf ppf
    "@,%d / %d classified correctly at the paper's operating point@,\
     (the one miss is TruncatedClean1, a documented precision limit:@,\
     sending only the clean prefix of a mixed string is flagged because@,\
     the result-reference slot is overtainted and the substring copy@,\
     starts inside its window).@,     (At extreme windows such as (20,10), the SharedPrefs2 reset pattern@,     turns into a false positive through reference-slot overtainting —@,     the \"larger NI increases the chance of a propagation\" cost the@,     paper describes.)@]@."
    !correct
    (List.length Pift_workloads.Extended.all)

let provenance ppf =
  Format.fprintf ppf
    "@[<v>== Provenance extension — which sources reached each sink \
     (multi-label tags, cf. Raksha) ==@,";
  List.iter
    (fun (app : App.t) ->
      let r = Recorded.record app in
      let replay =
        Recorded.replay ~with_origins:true ~policy:Policy.default r
      in
      List.iter
        (fun (v : Recorded.origin_verdict) ->
          Format.fprintf ppf "%-14s sink %-5s <- %s@," app.App.name
            v.Recorded.ov_kind
            (if v.Recorded.ov_origins = [] then "(clean)"
             else String.concat ", " v.Recorded.ov_origins))
        replay.Recorded.origins)
    Malware.all;
  Format.fprintf ppf "@]@."

let attribution ppf =
  Format.fprintf ppf
    "@[<v>== Attribution accuracy — predicted origin sets vs full-DIFT \
     ground truth (true-positive sinks) ==@,";
  let at =
    Accuracy.attribution ~policy:Policy.default
      (Droidbench.subset48 @ Malware.all)
  in
  Accuracy.render_attribution at ppf ();
  Format.fprintf ppf "@]@."

let min_windows ppf =
  Format.fprintf ppf
    "@[<v>== Minimal windows per app (the per-leakage-type upper bound \
     the paper leaves to future work) ==@,";
  Format.fprintf ppf "%-24s %10s %10s@," "app" "min NI@NT=3" "min NT@NI=20";
  let leaky_subset =
    List.filter (fun (a : App.t) -> a.App.leaky) Droidbench.subset48
  in
  List.iter
    (fun (app : App.t) ->
      let r = Recorded.record app in
      let flagged ni nt =
        (Recorded.replay ~policy:(Policy.make ~ni ~nt ()) r)
          .Recorded.flagged
      in
      let min_ni =
        List.find_opt (fun ni -> flagged ni 3) (List.init 20 (fun i -> i + 1))
      in
      let min_nt =
        List.find_opt (fun nt -> flagged 20 nt) (List.init 10 (fun i -> i + 1))
      in
      let s = function Some v -> string_of_int v | None -> ">max" in
      Format.fprintf ppf "%-24s %10s %10s@," app.App.name (s min_ni)
        (s min_nt))
    leaky_subset;
  Format.fprintf ppf "@]@."

let categories ppf =
  Format.fprintf ppf
    "@[<v>== Per-category results at %s (FlowDroid-style breakdown) ==@,"
    (Policy.to_string Policy.default);
  Format.fprintf ppf "%-30s %6s %6s %6s %6s@," "category" "apps" "ok" "FP"
    "FN";
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a : App.t) ->
      let r = Recorded.record a in
      let flagged =
        (Recorded.replay ~policy:Policy.default r).Recorded.flagged
      in
      let ok, fp, fn =
        match (a.App.leaky, flagged) with
        | true, true | false, false -> (1, 0, 0)
        | false, true -> (0, 1, 0)
        | true, false -> (0, 0, 1)
      in
      let t, o, p, n =
        Option.value ~default:(0, 0, 0, 0)
          (Hashtbl.find_opt tbl a.App.category)
      in
      Hashtbl.replace tbl a.App.category (t + 1, o + ok, p + fp, n + fn))
    Droidbench.all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (cat, (t, o, p, n)) ->
         Format.fprintf ppf "%-30s %6d %6d %6d %6d@," cat t o p n);
  Format.fprintf ppf "@]@."

let advise ppf =
  Format.fprintf ppf
    "@[<v>== Operating-point advisor (the per-leakage-type upper-bound \
     study of section 5.1, automated) ==@,";
  let corpus = Advisor.of_apps Droidbench.subset48 in
  (match Advisor.recommend corpus with
  | Some c ->
      Format.fprintf ppf "recommended %a@," Advisor.pp_candidate c
  | None ->
      Format.fprintf ppf "no perfect policy on the grid@,");
  Format.fprintf ppf "paper's point %a@," Advisor.pp_candidate
    (Advisor.evaluate corpus ~policy:Policy.default);
  Format.fprintf ppf "@]@."

let summary ppf =
  Format.fprintf ppf
    "@[<v>== Headline numbers (paper section 5.1) ==@,";
  let c =
    Accuracy.evaluate ~policy:Policy.default Droidbench.subset48
  in
  Format.fprintf ppf
    "DroidBench subset at %s: accuracy %.1f%% (paper: 97.9%%), FP %.0f%% \
     (paper: 0%%), FN %.1f%% (paper: 2%%)@,"
    (Policy.to_string Policy.default)
    (100. *. Accuracy.accuracy c)
    (100. *. Accuracy.fp_rate c)
    (100. *. Accuracy.fn_rate c);
  let c100 =
    Accuracy.evaluate ~policy:Policy.perfect_droidbench
      Droidbench.subset48
  in
  Format.fprintf ppf "at %s: accuracy %.1f%% (paper: 100%%)@,"
    (Policy.to_string Policy.perfect_droidbench)
    (100. *. Accuracy.accuracy c100);
  let detected =
    List.filter
      (fun app ->
        (Recorded.replay ~policy:Policy.malware_catching
           (Recorded.record app))
          .Recorded.flagged)
      Malware.all
  in
  Format.fprintf ppf "malware at %s: %d/7 detected (paper: 7/7)@,"
    (Policy.to_string Policy.malware_catching)
    (List.length detected);
  Format.fprintf ppf "@]@."

let all =
  [
    ("fig2", "load/store distance distributions (LGRoot trace)");
    ("table1", "per-bytecode load-store distances, measured vs expected");
    ("fig10", "top-30 bytecode frequency distributions");
    ("fig11", "accuracy heatmap over NI x NT (48-app DroidBench subset)");
    ("malware", "seven real-world malware at NI=3, NT=2");
    ("fig12", "# stores within windows of various sizes");
    ("fig13", "mean distance to the k-th store in a window");
    ("fig14", "max tainted bytes vs (NI, NT)");
    ("fig15", "tainted bytes over time");
    ("fig16", "cumulative taint/untaint operations over time");
    ("fig17", "max distinct ranges vs (NI, NT)");
    ("fig18", "untainting effect on tainted bytes");
    ("fig19", "untainting effect on distinct ranges");
    ("hw", "hardware range-cache statistics and overhead model");
    ("ablation-storage", "cache capacity and eviction-policy ablation");
    ("ablation-granularity", "range vs block-granularity storage ablation");
    ("ablation-jit", "interpreter vs JIT/AOT compilation (§4.1)");
    ("evasion", "§4.2 native obfuscation attack + §7 compiler countermeasure");
    ("multiproc", "PID-tagged tracking across context switches");
    ("provenance", "per-source taint labels at each sink");
    ("attribution", "origin-set accuracy vs full-DIFT ground truth");
    ("extended", "post-DroidBench-1.1 flow patterns");
    ("deferred", "buffered off-critical-path tracking (section 1)");
    ("fig2-multi", "load/store structure across several apps");
    ("categories", "per-category accuracy breakdown");
    ("advise", "cheapest perfect operating point on the subset");
    ("min-windows", "per-app minimal detection windows");
    ("summary", "headline accuracy and detection numbers");
  ]

let run ?rings ?on_cell ?jobs id ppf =
  header ppf id;
  match id with
  | "fig2" -> fig2 ppf
  | "table1" -> table1 ppf
  | "fig10" -> fig10 ppf
  | "fig11" -> fig11 ?rings ?on_cell ?jobs ppf
  | "malware" -> malware ppf
  | "fig12" -> fig12 ppf
  | "fig13" -> fig13 ppf
  | "fig14" -> fig14 ?rings ?jobs ppf
  | "fig15" -> fig15 ppf
  | "fig16" -> fig16 ppf
  | "fig17" -> fig17 ?rings ?jobs ppf
  | "fig18" -> fig18 ?rings ?jobs ppf
  | "fig19" -> fig19 ?rings ?jobs ppf
  | "hw" -> hw ppf
  | "ablation-storage" -> ablation_storage ppf
  | "ablation-granularity" -> ablation_granularity ppf
  | "ablation-jit" -> ablation_jit ppf
  | "evasion" -> evasion ppf
  | "multiproc" -> multiproc ppf
  | "provenance" -> provenance ppf
  | "attribution" -> attribution ppf
  | "extended" -> extended ppf
  | "deferred" -> deferred ppf
  | "fig2-multi" -> fig2_multi ppf
  | "categories" -> categories ppf
  | "advise" -> advise ppf
  | "min-windows" -> min_windows ppf
  | "summary" -> summary ppf
  | other -> failwith ("Experiments.run: unknown experiment " ^ other)

let run_all ?rings ?jobs ppf =
  List.iter (fun (id, _) -> run ?rings ?jobs id ppf) all
