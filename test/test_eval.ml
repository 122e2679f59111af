(* Integration tests for the evaluation layer: the paper's headline
   numbers must reproduce exactly on the shipped suite, the overhead
   regimes must have the right shape, and the record/replay machinery
   must be deterministic. *)

module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Storage = Pift_core.Storage
module Store = Pift_core.Store
module Range = Pift_util.Range
module App = Pift_workloads.App
module Droidbench = Pift_workloads.Droidbench
module Malware = Pift_workloads.Malware
module Recorded = Pift_eval.Recorded
module Accuracy = Pift_eval.Accuracy
module Overhead = Pift_eval.Overhead
module Tracestats = Pift_eval.Tracestats
module Table1 = Pift_eval.Table1

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A scaled-down LGRoot shared by the overhead tests. *)
let small_lgroot =
  lazy (Recorded.record (Malware.lgroot_sized ~rounds:6 ~payload_chars:512))

let app name =
  match Droidbench.find name with
  | Some a -> a
  | None -> Alcotest.failf "unknown app %s" name

(* --- record / replay mechanics ------------------------------------------- *)

let test_recording_structure () =
  let r = Recorded.record (app "StringConcat1") in
  checkb "has events" true (Pift_trace.Trace.length r.Recorded.trace > 100);
  checkb "has markers" true (Array.length r.Recorded.markers >= 2);
  (* markers are time-ordered *)
  let sorted = ref true in
  Array.iteri
    (fun i (seq, _) ->
      if i > 0 && seq < fst r.Recorded.markers.(i - 1) then sorted := false)
    r.Recorded.markers;
  checkb "markers ordered" true !sorted;
  (* source comes before sink here *)
  (match r.Recorded.markers.(0) with
  | _, Recorded.Source _ -> ()
  | _ -> Alcotest.fail "expected a source marker first");
  checkb "bytecodes counted" true (r.Recorded.bytecodes > 5)

let test_replay_deterministic () =
  let r = Recorded.record (app "BatchLeak1") in
  let a = Recorded.replay ~policy:Policy.default r in
  let b = Recorded.replay ~policy:Policy.default r in
  checkb "same verdicts" true (a.Recorded.verdicts = b.Recorded.verdicts);
  checki "same taint ops" a.Recorded.stats.Tracker.taint_ops
    b.Recorded.stats.Tracker.taint_ops;
  (* records of the same app are reproducible too *)
  let r2 = Recorded.record (app "BatchLeak1") in
  checki "same trace length"
    (Pift_trace.Trace.length r.Recorded.trace)
    (Pift_trace.Trace.length r2.Recorded.trace)

(* --- §5.1 headline accuracy ------------------------------------------------ *)

let test_headline_accuracy () =
  let c = Accuracy.evaluate ~policy:Policy.default Droidbench.subset48 in
  checki "TP at (13,3)" 31 c.Accuracy.tp;
  checki "FP at (13,3)" 0 c.Accuracy.fp;
  checki "TN at (13,3)" 16 c.Accuracy.tn;
  checki "FN at (13,3)" 1 c.Accuracy.fn;
  let c100 =
    Accuracy.evaluate ~policy:Policy.perfect_droidbench Droidbench.subset48
  in
  checki "FN at (18,3)" 0 c100.Accuracy.fn;
  checki "FP at (18,3)" 0 c100.Accuracy.fp

let test_single_false_negative_is_implicit_flow2 () =
  let missed = Accuracy.misclassified ~policy:Policy.default Droidbench.all in
  match missed with
  | [ ("ImplicitFlow2", `False_negative) ] -> ()
  | other ->
      Alcotest.failf "unexpected misclassifications: %s"
        (String.concat ", " (List.map fst other))

let test_accuracy_staircase () =
  let sweep =
    Accuracy.sweep ~nis:[ 3; 4; 9; 13; 18 ] ~nts:[ 1; 2; 3 ]
      Droidbench.subset48
  in
  let acc ni nt = 100. *. Accuracy.accuracy (Accuracy.cell sweep ~ni ~nt) in
  let close a b = Float.abs (a -. b) < 0.1 in
  checkb "79.2 at (3,1)" true (close (acc 3 1) 79.167);
  checkb "83.3 at (4,2)" true (close (acc 4 2) 83.333);
  checkb "95.8 at (9,3)" true (close (acc 9 3) 95.833);
  checkb "97.9 at (13,3)" true (close (acc 13 3) 97.917);
  checkb "100 at (18,3)" true (close (acc 18 3) 100.);
  (* no false positives anywhere on the grid *)
  List.iter
    (fun ((_, _), c) -> checki "zero FP" 0 c.Accuracy.fp)
    sweep.Accuracy.cells;
  (* monotone in NI at NT=3 *)
  let ordered = List.map (fun ni -> acc ni 3) [ 3; 4; 9; 13; 18 ] in
  checkb "monotone staircase" true
    (List.sort compare ordered = ordered)

(* The exact minimal window of every leaky app in the Fig. 11 subset —
   the band structure behind the accuracy staircase, pinned so workload
   or translation drift is caught immediately. *)
let subset_min_windows =
  [
    ("DirectLeak1", 1); ("SourceCodeSpecific1", 1); ("FieldSensitivity2", 1);
    ("ObjectSensitivity2", 1); ("StaticInitialization1", 1);
    ("ActivityLifecycle1", 1); ("ServiceLifecycle1", 1); ("ArrayAccess2", 1);
    ("ListAccess2", 1); ("IntentSink1", 1); ("Reflection1", 1);
    ("Exceptions1", 1); ("StringConcat1", 2); ("LogLeak1", 2);
    ("PhoneNumber1", 2); ("Serial1", 2); ("DeviceId1", 2); ("Substring1", 2);
    ("StringToUpper1", 2); ("Obfuscation1", 2); ("ArrayCopy1", 2);
    ("Button1", 2); ("BatchLeak1", 3); ("SbChain1", 3); ("Loop2", 5);
    ("ActivityLifecycle2", 5); ("Exceptions2", 5); ("Loop1", 6);
    ("ImplicitFlow1", 7); ("WideLeak1", 9); ("LocationLeak1", 10);
    ("ImplicitFlow2", 18);
  ]

let test_detection_thresholds () =
  let pinned =
    List.sort_uniq String.compare (List.map fst subset_min_windows)
  in
  let subset_leaky =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (a : App.t) -> if a.App.leaky then Some a.App.name else None)
         Droidbench.subset48)
  in
  checkb "pinned set = subset leaky set" true (pinned = subset_leaky);
  List.iter
    (fun (name, min_ni) ->
      let r = Recorded.record (app name) in
      let flagged ni =
        (Recorded.replay ~policy:(Policy.make ~ni ~nt:3 ()) r).Recorded.flagged
      in
      if min_ni > 1 then
        checkb (name ^ " missed below threshold") false
          (flagged (min_ni - 1));
      checkb (name ^ " detected at threshold") true (flagged min_ni))
    subset_min_windows

let test_nt_thresholds () =
  List.iter
    (fun name ->
      let r = Recorded.record (app name) in
      let flagged nt =
        (Recorded.replay ~policy:(Policy.make ~ni:13 ~nt ()) r)
          .Recorded.flagged
      in
      checkb (name ^ " needs NT>=2") false (flagged 1);
      checkb (name ^ " detected at NT=2") true (flagged 2))
    [ "BatchLeak1"; "SbChain1" ]

let test_malware_detection () =
  List.iter
    (fun (a : App.t) ->
      let r = Recorded.record a in
      let rep = Recorded.replay ~policy:Policy.malware_catching r in
      checkb (a.App.name ^ " caught at (3,2)") true rep.Recorded.flagged)
    Malware.all

(* --- Overhead regimes ------------------------------------------------------- *)

let test_overhead_regimes () =
  let r = Lazy.force small_lgroot in
  let m ?untaint ni nt = Overhead.measure ?untaint r ~ni ~nt in
  (* NT=1: tiny, flat *)
  let p1 = m 20 1 in
  checkb "NT=1 stays small" true (p1.Overhead.max_tainted_bytes < 400);
  (* moderate plateau below the explosion threshold *)
  let p13 = m 13 3 in
  let p15 = m 15 3 in
  checkb "explosion at (15,3)" true
    (p15.Overhead.max_tainted_bytes > 3 * p13.Overhead.max_tainted_bytes);
  (* NT=2 does not explode *)
  let p15_2 = m 15 2 in
  checkb "NT=2 flat" true
    (p15_2.Overhead.max_tainted_bytes < p15.Overhead.max_tainted_bytes / 2);
  (* untainting shrinks state at small windows *)
  let on = m ~untaint:true 5 3 and off = m ~untaint:false 5 3 in
  checkb "untainting helps" true
    (2 * on.Overhead.max_tainted_bytes < off.Overhead.max_tainted_bytes);
  checkb "untaint ops happen" true (on.Overhead.untaint_ops > 0);
  checki "no untaint ops when disabled" 0 off.Overhead.untaint_ops

let test_series_monotonic () =
  let r = Lazy.force small_lgroot in
  let _bytes, ops = Overhead.series r ~ni:10 ~nt:3 in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  checkb "cumulative ops monotone" true (monotone ops);
  checkb "ops recorded" true (List.length ops > 2)

(* Figs. 15/16 end where the replay's counters end: the last bytes
   sample is the final occupancy (read off the replay's store), the
   bytes curve peaks at [max_tainted_bytes], and the ops
   curve steps by one per op up to [taint_ops + untaint_ops].  The apps
   are small enough that neither curve is downsampled. *)
let test_series_endpoints () =
  List.iter
    (fun name ->
      let r = Recorded.record (Option.get (Droidbench.find name)) in
      let store = Pift_core.Store.create () in
      let s =
        (Recorded.replay ~store ~policy:(Policy.make ~ni:13 ~nt:3 ()) r)
          .Recorded.stats
      in
      let bytes, ops = Overhead.series r ~ni:13 ~nt:3 in
      let check what = checki (name ^ ": " ^ what) in
      let last pts = snd (List.nth pts (List.length pts - 1)) in
      check "last bytes sample is the final occupancy"
        (store.Pift_core.Store.tainted_bytes ())
        (last bytes);
      check "bytes curve peaks at max_tainted_bytes"
        s.Tracker.max_tainted_bytes
        (List.fold_left (fun m (_, v) -> max m v) 0 bytes);
      check "last ops value" (s.Tracker.taint_ops + s.Tracker.untaint_ops)
        (last ops);
      checkb (name ^ ": one ops sample per op") true
        (List.mapi (fun i (_, v) -> v = i + 1) ops |> List.for_all Fun.id))
    [
      "StringConcat1"; "BenignOverwrite1"; "BenignSeparate1"; "LifecycleClear1";
    ]

(* --- Trace statistics -------------------------------------------------------- *)

let test_trace_statistics () =
  let r = Lazy.force small_lgroot in
  let s = Tracestats.analyse r in
  (* the paper's "0-10 captures 99%" property *)
  checkb "99% of stores within 10 of a load" true
    (Tracestats.coverage_within s 10 > 0.99);
  let h = Tracestats.load_store_distance s in
  checkb "bulk in 0-5" true (Pift_util.Histogram.cdf h 5 > 0.9);
  (* stores per window grow with NI but saturate *)
  let mean ni =
    Pift_util.Histogram.mean (Tracestats.stores_in_window s ~ni)
  in
  checkb "window capture grows" true (mean 10 >= mean 5);
  (* a window of 10 already captures at least one store per load on
     average (our traces are denser in memory operations than the
     paper's full-Android ones, so saturation is weaker; see
     EXPERIMENTS.md) *)
  checkb "NI=10 captures the related stores" true (mean 10 >= 1.);
  (* distance to the k-th store increases with k *)
  match
    ( Tracestats.kth_store_distance s ~ni:20 ~kth:1,
      Tracestats.kth_store_distance s ~ni:20 ~kth:3 )
  with
  | Some d1, Some d3 -> checkb "k-th store ordering" true (d1 < d3)
  | _ -> Alcotest.fail "expected k-th store distances"

(* --- Table 1 (redundant with test_dalvik but cheap insurance) -------------- *)

let test_table1_spot () =
  let rows = Table1.measure_all () in
  let find m =
    List.find (fun (r : Table1.row) -> r.Table1.mnemonic = m) rows
  in
  checkb "return = 1" true ((find "return").Table1.measured = Some 1);
  checkb "aget = 2" true ((find "aget").Table1.measured = Some 2);
  checkb "iget = 5" true ((find "iget").Table1.measured = Some 5);
  checkb "div unknown" true ((find "div-int").Table1.measured = None)

(* --- Confusion-matrix arithmetic --------------------------------------------- *)

let test_confusion_arithmetic () =
  let c = { Accuracy.tp = 31; fp = 0; tn = 16; fn = 1 } in
  Alcotest.(check (float 1e-6)) "accuracy" (47. /. 48.) (Accuracy.accuracy c);
  Alcotest.(check (float 1e-6)) "fp rate" 0. (Accuracy.fp_rate c);
  Alcotest.(check (float 1e-6)) "fn rate" (1. /. 32.) (Accuracy.fn_rate c);
  let empty = { Accuracy.tp = 0; fp = 0; tn = 0; fn = 0 } in
  Alcotest.(check (float 1e-6)) "empty accuracy" 0. (Accuracy.accuracy empty);
  Alcotest.(check (float 1e-6)) "empty fp" 0. (Accuracy.fp_rate empty)

(* --- Per-process isolation under interleaving --------------------------------- *)

(* Algorithm 1's windows run on per-process instruction counters (Fig. 5),
   so splicing another process's events into the stream must not change a
   process's verdicts — preemption cannot stretch or break a window. *)
let test_interleaving_invariance () =
  let r1 = Recorded.record (app "StringConcat1") in
  (* a second recording re-tagged as pid 2 *)
  let r2 = Recorded.record (app "Loop2") in
  let retag (e : Pift_trace.Event.t) = { e with Pift_trace.Event.pid = 2 } in
  let replay_with_interleave ~chunk =
    let tracker = Pift_core.Tracker.create ~policy:Policy.default () in
    let verdicts = ref [] in
    let mi = ref 0 in
    let markers = r1.Recorded.markers in
    let apply_until seq =
      while !mi < Array.length markers && fst markers.(!mi) <= seq do
        (match snd markers.(!mi) with
        | Recorded.Source { range; _ } ->
            Pift_core.Tracker.taint_source tracker ~pid:1 range
        | Recorded.Sink { ranges; _ } ->
            verdicts :=
              List.exists
                (fun rg -> Pift_core.Tracker.is_tainted tracker ~pid:1 rg)
                ranges
              :: !verdicts);
        incr mi
      done
    in
    apply_until 0;
    let foreign = ref [] in
    Pift_trace.Trace.iter (fun e -> foreign := retag e :: !foreign) r2.Recorded.trace;
    let foreign = Array.of_list (List.rev !foreign) in
    let fi = ref 0 in
    let n = ref 0 in
    Pift_trace.Trace.iter
      (fun e ->
        (* every [chunk] events, splice in a burst of pid-2 events *)
        incr n;
        if chunk > 0 && !n mod chunk = 0 then
          for _ = 1 to 5 do
            if !fi < Array.length foreign then begin
              Pift_core.Tracker.observe tracker foreign.(!fi);
              incr fi
            end
          done;
        Pift_core.Tracker.observe tracker e;
        apply_until e.Pift_trace.Event.seq)
      r1.Recorded.trace;
    apply_until max_int;
    List.rev !verdicts
  in
  let baseline = replay_with_interleave ~chunk:0 in
  checkb "pid-1 verdicts unchanged by preemption" true
    (List.for_all
       (fun chunk -> replay_with_interleave ~chunk = baseline)
       [ 1; 3; 7; 50 ])

(* --- Advisor ---------------------------------------------------------------------- *)

let test_advisor () =
  let corpus =
    Pift_eval.Advisor.of_apps
      (List.filter_map Droidbench.find
         [
           "StringConcat1"; "BatchLeak1"; "Loop1"; "LocationLeak1";
           "BenignConstant1"; "BenignOverwrite1";
         ])
  in
  (* the paper's operating point classifies this sub-corpus perfectly *)
  let c = Pift_eval.Advisor.evaluate corpus ~policy:Policy.default in
  checkb "no FN at (13,3)" true (c.Pift_eval.Advisor.false_negatives = []);
  checkb "no FP at (13,3)" true (c.Pift_eval.Advisor.false_positives = []);
  checkb "cost positive" true (c.Pift_eval.Advisor.overtaint_cost > 0);
  (* the recommendation must be perfect and at least cover the GPS app *)
  (match Pift_eval.Advisor.recommend corpus with
  | Some best ->
      checkb "recommendation perfect" true
        (best.Pift_eval.Advisor.false_negatives = []
        && best.Pift_eval.Advisor.false_positives = []);
      checkb "window covers itoa" true
        (best.Pift_eval.Advisor.policy.Policy.ni >= 10);
      checkb "window covers builders" true
        (best.Pift_eval.Advisor.policy.Policy.nt >= 2)
  | None -> Alcotest.fail "expected a recommendation");
  (* an impossible corpus (evasion attack) yields None *)
  let impossible =
    Pift_eval.Advisor.of_apps [ Pift_workloads.Evasion.attack ]
  in
  checkb "evasion cannot be covered" true
    (Pift_eval.Advisor.recommend impossible = None)

(* --- Flow explanation ------------------------------------------------------------ *)

let test_explain_reaches_source () =
  let r = Recorded.record (app "StringConcat1") in
  match Pift_eval.Explain.explain r with
  | [ flow ] ->
      checkb "chain has hops" true (flow.Pift_eval.Explain.hops <> []);
      checkb "chain reaches the source" true
        (flow.Pift_eval.Explain.source <> None);
      (* hops run backwards in time from sink to source *)
      let seqs =
        List.map (fun h -> h.Pift_eval.Explain.store_seq)
          flow.Pift_eval.Explain.hops
      in
      checkb "hops ordered sink-to-source" true
        (List.sort (fun a b -> compare b a) seqs = seqs)
  | flows -> Alcotest.failf "expected one flow, got %d" (List.length flows)

let test_explain_clean_and_direct () =
  (* benign app: nothing to explain *)
  let r = Recorded.record (app "BenignConstant1") in
  checkb "no flows on clean app" true (Pift_eval.Explain.explain r = []);
  (* reference flow: the sink range IS the source range — zero hops *)
  let r = Recorded.record (app "DirectLeak1") in
  match Pift_eval.Explain.explain r with
  | flow :: _ ->
      checkb "direct flow bottoms out immediately" true
        (flow.Pift_eval.Explain.source <> None
        && flow.Pift_eval.Explain.hops = [])
  | [] -> Alcotest.fail "direct leak should be flagged"

(* --- Experiments driver --------------------------------------------------------- *)

let render_experiment id =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Pift_eval.Experiments.run id ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_experiments_smoke () =
  checkb "ids documented" true (List.length Pift_eval.Experiments.all >= 20);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      if i + n > h then false else String.sub hay i n = needle || go (i + 1)
    in
    go 0
  in
  let t1 = render_experiment "table1" in
  checkb "table1 output" true (contains t1 "mul-int/2addr");
  let mw = render_experiment "malware" in
  checkb "malware detects all" true (contains mw "detected 7 / 7");
  (try
     Pift_eval.Experiments.run "nonsense" Format.str_formatter;
     Alcotest.fail "unknown experiment accepted"
   with Failure _ -> ())

(* --- Provenance replay -------------------------------------------------------- *)

let test_provenance_replay () =
  let r = Recorded.record (Malware.lgroot_sized ~rounds:1 ~payload_chars:64) in
  let verdicts =
    (Recorded.replay ~with_origins:true ~policy:Policy.default r)
      .Recorded.origins
  in
  match verdicts with
  | [ v ] ->
      Alcotest.(check string) "http sink" "http" v.Recorded.ov_kind;
      checkb "IMEI leaked" true (List.mem "IMEI" v.Recorded.ov_origins);
      checkb "phone leaked" true (List.mem "PhoneNumber" v.Recorded.ov_origins);
      checkb "serial leaked" true
        (List.mem "SerialNumber" v.Recorded.ov_origins)
  | other -> Alcotest.failf "expected one verdict, got %d" (List.length other)

let test_provenance_clean_app () =
  let r = Recorded.record (app "BenignConstant1") in
  let verdicts =
    (Recorded.replay ~with_origins:true ~policy:Policy.default r)
      .Recorded.origins
  in
  checkb "clean sinks" true
    (List.for_all
       (fun (v : Recorded.origin_verdict) -> v.Recorded.ov_origins = [])
       verdicts)

(* --- Provenance graphs -------------------------------------------------------- *)

module Explain = Pift_eval.Explain
module Graph = Pift_core.Provenance.Graph

(* Differential against full DIFT: on every true-positive DroidBench
   sink the predicted origin set must contain every ground-truth source
   (the sidecar unions per-label windows, so it can over- but never
   under-attribute a sink the tracker flags). *)
let test_origin_differential () =
  let at = Accuracy.attribution ~policy:Policy.default Droidbench.subset48 in
  checkb "has true-positive rows" true (at.Accuracy.at_rows <> []);
  checki "no under-attribution" 0 at.Accuracy.at_under;
  checki "no mixed rows" 0 at.Accuracy.at_mixed;
  checkb "every predicted set non-empty" true
    (List.for_all
       (fun (row : Accuracy.attribution_row) -> row.Accuracy.at_pift <> [])
       at.Accuracy.at_rows);
  checkb "mean Jaccard near exact" true (at.Accuracy.at_mean_jaccard > 0.9);
  List.iter
    (fun (row : Accuracy.attribution_row) ->
      checkb
        (Printf.sprintf "%s check #%d: dift ⊆ pift" row.Accuracy.at_app
           row.Accuracy.at_check)
        true
        (List.for_all
           (fun o -> List.mem o row.Accuracy.at_pift)
           row.Accuracy.at_dift))
    at.Accuracy.at_rows

(* Acceptance property: every flagged sink across the DroidBench subset
   yields a non-empty origin set and one source-rooted path per origin,
   each ending at the sink node. *)
let test_flow_graph_paths () =
  List.iter
    (fun a ->
      let r = Recorded.record a in
      let _, sinks = Explain.flow_graph ~policy:Policy.default r in
      List.iter
        (fun (sf : Explain.sink_flow) ->
          let name =
            Printf.sprintf "%s check #%d" a.App.name sf.Explain.sf_check
          in
          checkb (name ^ " has origins") true (sf.Explain.sf_origins <> []);
          checki
            (name ^ " one path per origin")
            (List.length sf.Explain.sf_origins)
            (List.length sf.Explain.sf_paths);
          List.iter
            (fun (p : Explain.path) ->
              match p.Explain.p_nodes with
              | [] -> Alcotest.failf "%s: empty path" name
              | first :: _ -> (
                  (match first.Graph.kind with
                  | Graph.N_source _ -> ()
                  | _ ->
                      Alcotest.failf "%s: path does not start at a source"
                        name);
                  match List.rev p.Explain.p_nodes with
                  | last :: _ -> (
                      match last.Graph.kind with
                      | Graph.N_sink _ -> ()
                      | _ ->
                          Alcotest.failf "%s: path does not end at the sink"
                            name)
                  | [] -> assert false))
            sf.Explain.sf_paths)
        sinks)
    Droidbench.subset48

let test_flow_graph_deterministic () =
  let r = Recorded.record (app "StringConcat1") in
  let g1, s1 = Explain.flow_graph ~policy:Policy.default r in
  let g2, s2 = Explain.flow_graph ~policy:Policy.default r in
  checkb "graph is non-trivial" true (Graph.node_count g1 > 2);
  Alcotest.(check string) "same DOT" (Graph.to_dot g1) (Graph.to_dot g2);
  let render g sinks =
    Pift_obs.Json.to_string
      (Graph.flow_json ~run:"det" ~sinks:(Explain.summaries sinks) g)
  in
  Alcotest.(check string) "same flow JSON" (render g1 s1) (render g2 s2)

let test_flow_json_validates () =
  let r = Recorded.record (app "StringConcat1") in
  let g, sinks = Explain.flow_graph ~policy:Policy.default r in
  let json = Graph.flow_json ~run:"test" ~sinks:(Explain.summaries sinks) g in
  (match Pift_obs.Chrome.validate json with
  | Error msg -> Alcotest.failf "flow JSON rejected: %s" msg
  | Ok c -> checkb "has flow events" true (c.Pift_obs.Chrome.c_flows > 0));
  checkb "classified as flow graph" true
    (Pift_obs.Sink.classify json = Pift_obs.Sink.Flow_graph)

(* --- Graph builder over random synthetic recordings ---------------------- *)

module Event = Pift_trace.Event
module Trace = Pift_trace.Trace
module Rng = Pift_util.Rng

(* A synthetic single-pid recording: fixed sources, a random event
   stream, sink checks after the last event.  Kept as plain data so
   shrinking can drop event chunks. *)
type prov_case = {
  pc_policy : Pift_core.Policy.t;
  pc_srcs : (string * Range.t) list;
  pc_events : Event.t list;
  pc_sinks : Range.t list;
}

let prov_case_to_string c =
  let ev e =
    match e.Event.access with
    | Event.Load r -> Printf.sprintf "ld %s" (Range.to_string r)
    | Event.Store r -> Printf.sprintf "st %s" (Range.to_string r)
    | Event.Other -> "nop"
  in
  Printf.sprintf "(ni=%d nt=%d) srcs=[%s] events=[%s] sinks=[%s]"
    c.pc_policy.Policy.ni c.pc_policy.Policy.nt
    (String.concat "; "
       (List.map
          (fun (k, r) -> Printf.sprintf "%s@%s" k (Range.to_string r))
          c.pc_srcs))
    (String.concat "; " (List.map ev c.pc_events))
    (String.concat "; " (List.map Range.to_string c.pc_sinks))

(* Loads draw from the source ranges and from previously stored ranges
   (so multi-hop chains actually form); stores land in a disjoint high
   region; sinks check stored or arbitrary ranges. *)
let gen_prov_case rng =
  let policy =
    Policy.make ~ni:(Rng.int_in rng 2 10) ~nt:(Rng.int_in rng 1 3)
      ~untaint:(Rng.int rng 2 = 0) ()
  in
  let srcs =
    let imei = ("IMEI", Range.make 0 15) in
    if Rng.int rng 2 = 0 then [ imei ]
    else [ imei; ("GPS", Range.make 32 47) ]
  in
  let interesting = ref (List.map snd srcs) in
  let sub r =
    let lo = Range.lo r + Rng.int rng (max 1 (Range.length r - 1)) in
    Range.make lo (min (Range.hi r) (lo + Rng.int rng 8))
  in
  let n = 4 + Rng.int rng 28 in
  let events =
    List.init n (fun i ->
        let k = i + 1 in
        let access =
          match Rng.int rng 8 with
          | 0 | 1 | 2 ->
              let pool = !interesting in
              let r = List.nth pool (Rng.int rng (List.length pool)) in
              Event.Load (if Rng.int rng 2 = 0 then r else sub r)
          | 3 | 4 | 5 ->
              let lo = 128 + Rng.int rng 112 in
              let r = Range.make lo (lo + Rng.int rng 15) in
              interesting := r :: !interesting;
              Event.Store r
          | _ -> Event.Other
        in
        { Event.seq = k; k; pid = 1; access })
  in
  let sinks =
    List.init (1 + Rng.int rng 2) (fun _ ->
        let pool = !interesting in
        if Rng.int rng 4 = 0 then Range.make 400 415
        else List.nth pool (Rng.int rng (List.length pool)))
  in
  { pc_policy = policy; pc_srcs = srcs; pc_events = events; pc_sinks = sinks }

let recorded_of_prov_case c =
  let trace = Trace.create () in
  List.iter (Trace.add trace) c.pc_events;
  let last_seq =
    List.fold_left (fun acc e -> max acc e.Event.seq) 0 c.pc_events
  in
  let markers =
    List.map
      (fun (kind, range) -> (0, Recorded.Source { kind; range }))
      c.pc_srcs
    @ List.map
        (fun r ->
          (last_seq + 1, Recorded.Sink { kind = "net"; ranges = [ r ] }))
        c.pc_sinks
  in
  {
    Recorded.name = "prop";
    trace;
    markers = Array.of_list markers;
    pid = 1;
    bytecodes = 0;
    frag_hits = 0;
    frag_misses = 0;
  }

let prov_graph_prop c =
  let r = recorded_of_prov_case c in
  let policy = c.pc_policy in
  let plain = Recorded.replay ~policy r in
  let witho = Recorded.replay ~with_origins:true ~policy r in
  if plain.Recorded.verdicts <> witho.Recorded.verdicts then
    Error "origin sidecar changed a verdict"
  else if
    not
      (List.for_all
         (fun (o : Recorded.origin_verdict) ->
           o.Recorded.ov_flagged = (o.Recorded.ov_origins <> []))
         witho.Recorded.origins)
  then Error "flagged sink without origins (or origins on a clean sink)"
  else
    let g1, sinks1 = Explain.flow_graph ~policy r in
    let g2, _ = Explain.flow_graph ~policy r in
    if Graph.to_dot g1 <> Graph.to_dot g2 then
      Error "flow-graph DOT not deterministic"
    else
      let bad_path (sf : Explain.sink_flow) =
        sf.Explain.sf_origins = []
        || List.length sf.Explain.sf_paths
           <> List.length sf.Explain.sf_origins
        || List.exists
             (fun (p : Explain.path) ->
               match (p.Explain.p_nodes, List.rev p.Explain.p_nodes) with
               | first :: _, last :: _ -> (
                   (match first.Graph.kind with
                   | Graph.N_source _ -> false
                   | _ -> true)
                   ||
                   match last.Graph.kind with
                   | Graph.N_sink _ -> false
                   | _ -> true)
               | [], _ | _, [] -> true)
             sf.Explain.sf_paths
      in
      match List.find_opt bad_path sinks1 with
      | Some sf ->
          Error
            (Printf.sprintf "sink check #%d: broken source->sink path"
               sf.Explain.sf_check)
      | None -> Ok ()

let test_prov_graph_property () =
  Prop.check_gen ~name:"provenance graph builder" ~count:200
    ~gen:gen_prov_case
    ~shrink:(fun c ->
      List.map
        (fun evs -> { c with pc_events = evs })
        (Prop.shrink_candidates c.pc_events))
    ~to_string:prov_case_to_string prov_graph_prop

(* The sidecar must be verdict-neutral: replaying with origins on
   changes nothing the plain replay reports, and a sink is flagged
   exactly when its origin set is non-empty (the union-over-labels
   invariant). *)
let test_with_origins_neutral () =
  let r = Lazy.force small_lgroot in
  let plain = Recorded.replay ~policy:Policy.default r in
  let witho = Recorded.replay ~with_origins:true ~policy:Policy.default r in
  checkb "verdicts unchanged" true
    (plain.Recorded.verdicts = witho.Recorded.verdicts);
  checkb "stats unchanged" true (plain.Recorded.stats = witho.Recorded.stats);
  checkb "plain replay has no origins" true (plain.Recorded.origins = []);
  checki "one origin verdict per sink check"
    (List.length witho.Recorded.verdicts)
    (List.length witho.Recorded.origins);
  checkb "flag mirrors verdict" true
    (List.for_all2
       (fun (v : Recorded.verdict) (o : Recorded.origin_verdict) ->
         v.Recorded.flagged = o.Recorded.ov_flagged)
       witho.Recorded.verdicts witho.Recorded.origins);
  checkb "flagged iff origins non-empty" true
    (List.for_all
       (fun (o : Recorded.origin_verdict) ->
         o.Recorded.ov_flagged = (o.Recorded.ov_origins <> []))
       witho.Recorded.origins)

(* --- Hardware-backed tracking ----------------------------------------------- *)

let test_hw_backed_detection () =
  let r = Recorded.record (app "StringConcat1") in
  (* plenty of entries: same verdict as the exact store *)
  let storage = Storage.create ~entries:1024 () in
  let rep =
    Recorded.replay ~store:(Storage.store storage) ~policy:Policy.default r
  in
  checkb "cache-backed detection" true rep.Recorded.flagged;
  let st = Storage.stats storage in
  checkb "lookups happened" true (st.Storage.lookups > 0);
  (* a tiny drop-policy cache can lose the flow *)
  let tiny = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  let rep2 =
    Recorded.replay ~store:(Storage.store tiny) ~policy:Policy.default r
  in
  let st2 = Storage.stats tiny in
  checkb "drops occurred or still flagged" true
    (st2.Storage.drops > 0 || rep2.Recorded.flagged)

let () =
  Alcotest.run "pift_eval"
    [
      ( "record/replay",
        [
          Alcotest.test_case "structure" `Quick test_recording_structure;
          Alcotest.test_case "determinism" `Quick test_replay_deterministic;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "headline (13,3)" `Slow test_headline_accuracy;
          Alcotest.test_case "single FN is ImplicitFlow2" `Slow
            test_single_false_negative_is_implicit_flow2;
          Alcotest.test_case "Fig.11 staircase" `Slow test_accuracy_staircase;
          Alcotest.test_case "NI thresholds" `Quick test_detection_thresholds;
          Alcotest.test_case "NT thresholds" `Quick test_nt_thresholds;
          Alcotest.test_case "malware 7/7" `Quick test_malware_detection;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "regimes" `Slow test_overhead_regimes;
          Alcotest.test_case "series" `Quick test_series_monotonic;
          Alcotest.test_case "series endpoints" `Quick test_series_endpoints;
        ] );
      ( "trace stats",
        [ Alcotest.test_case "fig2 properties" `Quick test_trace_statistics ] );
      ("table1", [ Alcotest.test_case "spot checks" `Quick test_table1_spot ]);
      ( "provenance",
        [
          Alcotest.test_case "lgroot labels" `Quick test_provenance_replay;
          Alcotest.test_case "clean app" `Quick test_provenance_clean_app;
        ] );
      ( "provenance graphs",
        [
          Alcotest.test_case "origin differential vs DIFT" `Slow
            test_origin_differential;
          Alcotest.test_case "paths rooted at sources" `Slow
            test_flow_graph_paths;
          Alcotest.test_case "deterministic exports" `Quick
            test_flow_graph_deterministic;
          Alcotest.test_case "flow JSON validates" `Quick
            test_flow_json_validates;
          Alcotest.test_case "sidecar verdict-neutral" `Quick
            test_with_origins_neutral;
          Alcotest.test_case "graph builder property (seeded)" `Quick
            test_prov_graph_property;
        ] );
      ( "misc",
        [
          Alcotest.test_case "confusion arithmetic" `Quick
            test_confusion_arithmetic;
          Alcotest.test_case "interleaving invariance" `Quick
            test_interleaving_invariance;
          Alcotest.test_case "experiments smoke" `Quick
            test_experiments_smoke;
          Alcotest.test_case "explain reaches source" `Quick
            test_explain_reaches_source;
          Alcotest.test_case "explain clean & direct" `Quick
            test_explain_clean_and_direct;
          Alcotest.test_case "advisor" `Quick test_advisor;
        ] );
      ( "hardware",
        [ Alcotest.test_case "cache-backed" `Quick test_hw_backed_detection ] );
    ]
