(* Tests for the flight-recorder layer: ring wrap-around semantics,
   per-ring Chrome tracks, Chrome trace export/validation round-trips
   and report format sniffing. *)

module Flight = Pift_obs.Flight
module Chrome = Pift_obs.Chrome
module Json = Pift_obs.Json
module Sink = Pift_obs.Sink

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- ring buffer -------------------------------------------------------- *)

let test_ring_basic () =
  let r = Flight.create ~capacity:8 () in
  checki "empty length" 0 (Flight.length r);
  Flight.begin_ r "a";
  Flight.sample r "c" 3.;
  Flight.end_ r "a";
  checki "length" 3 (Flight.length r);
  checki "dropped" 0 (Flight.dropped r);
  (match Flight.events r with
  | [ e1; e2; e3 ] ->
      checkb "kinds" true
        (e1.Flight.kind = Flight.Begin
        && e2.Flight.kind = Flight.Sample
        && e3.Flight.kind = Flight.End);
      checks "name" "c" e2.Flight.name;
      Alcotest.(check (float 1e-9)) "value" 3. e2.Flight.value;
      checkb "ts monotonic" true
        (e1.Flight.ts <= e2.Flight.ts && e2.Flight.ts <= e3.Flight.ts);
      checkb "ts non-negative" true (e1.Flight.ts >= 0.)
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l))

let test_ring_wrap_keeps_newest () =
  let r = Flight.create ~capacity:4 () in
  for i = 1 to 10 do
    Flight.sample r "n" (float_of_int i)
  done;
  checki "length capped" 4 (Flight.length r);
  checki "dropped = recorded - capacity" 6 (Flight.dropped r);
  let values = List.map (fun e -> e.Flight.value) (Flight.events r) in
  checkb "newest 4 survive, oldest first" true (values = [ 7.; 8.; 9.; 10. ])

let test_ring_capacity_zero_noop () =
  let r = Flight.create ~capacity:0 () in
  Flight.begin_ r "a";
  Flight.end_ r "a";
  Flight.instant r "i";
  Flight.sample r "c" 1.;
  checki "capacity" 0 (Flight.capacity r);
  checki "length" 0 (Flight.length r);
  checki "dropped" 0 (Flight.dropped r);
  checkb "no events" true (Flight.events r = [])

(* --- per-ring tracks ---------------------------------------------------- *)

let field conv name j = Option.get (Option.bind (Json.member name j) conv)

let test_timeline_merge_preserves_order () =
  let a = Flight.create ~capacity:8 () in
  let b = Flight.create ~capacity:2 () in
  (* interleave writes across rings; each track must keep its own order *)
  Flight.instant a "a1";
  Flight.instant b "b0";
  Flight.instant b "b1";
  Flight.instant a "a2";
  Flight.instant b "b2";
  Flight.instant a "a3";
  let j = Chrome.json [| a; b |] in
  let track tid =
    List.filter_map
      (fun ev ->
        if field Json.to_str "ph" ev = "i" && field Json.to_int "tid" ev = tid
        then Some (field Json.to_str "name" ev)
        else None)
      (field Json.to_list "traceEvents" j)
  in
  Alcotest.(check (list string)) "tid 0 = ring 0, in order" [ "a1"; "a2"; "a3" ]
    (track 0);
  Alcotest.(check (list string)) "tid 1 = ring 1, newest kept" [ "b1"; "b2" ]
    (track 1);
  checki "dropped total" 1 (field Json.to_int "pift_dropped_events" j);
  match field Json.to_list "pift_dropped_by_track" j with
  | [ t ] ->
      checki "dropping track" 1 (field Json.to_int "tid" t);
      checki "its drops" 1 (field Json.to_int "dropped" t)
  | l -> Alcotest.failf "expected 1 dropping track, got %d" (List.length l)

(* --- Chrome export round-trip ------------------------------------------- *)

let sample_rings () =
  let a = Flight.create ~capacity:64 () in
  let b = Flight.create ~capacity:64 () in
  Flight.begin_ a "cell(1,1)";
  Flight.sample a "bytes" 10.;
  Flight.instant a "source";
  Flight.end_ a "cell(1,1)";
  Flight.begin_ b "cell(1,2)";
  Flight.begin_ b "inner";
  Flight.end_ b "inner";
  Flight.end_ b "cell(1,2)";
  [| a; b |]

let test_chrome_round_trip () =
  let j = Chrome.json ~run:"test" (sample_rings ()) in
  (* serialized text parses back to the same structure *)
  let reparsed = Json.of_string (Json.to_string j) in
  match Chrome.validate reparsed with
  | Error msg -> Alcotest.failf "round trip invalid: %s" msg
  | Ok c ->
      checki "tracks" 2 c.Chrome.c_tracks;
      checki "spans" 3 c.Chrome.c_spans;
      checki "instants" 1 c.Chrome.c_instants;
      checki "samples" 1 c.Chrome.c_samples;
      checkb "counter names" true (c.Chrome.c_counter_names = [ "bytes" ])

let test_chrome_repairs_wrap_imbalance () =
  (* A wrapped ring can surface an End whose Begin was overwritten and a
     Begin whose End never arrived; the exporter must balance both. *)
  let r = Flight.create ~capacity:64 () in
  Flight.end_ r "lost-begin";
  Flight.begin_ r "never-closed";
  Flight.instant r "i";
  let j = Chrome.json [| r |] in
  match Chrome.validate j with
  | Error msg -> Alcotest.failf "repaired trace invalid: %s" msg
  | Ok c ->
      checki "one span (orphan E dropped, open B closed)" 1 c.Chrome.c_spans;
      checki "instant kept" 1 c.Chrome.c_instants

let test_chrome_validate_rejects () =
  let reject what text =
    match Chrome.validate (Json.of_string text) with
    | Ok _ -> Alcotest.failf "%s: expected rejection" what
    | Error _ -> ()
  in
  reject "missing traceEvents" {|{"foo": 1}|};
  reject "unbalanced E"
    {|{"traceEvents":[{"name":"x","ph":"E","pid":1,"tid":0,"ts":1.0}]}|};
  reject "unclosed B"
    {|{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":1.0}]}|};
  reject "negative ts"
    {|{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":0,"ts":-1.0}]}|};
  reject "backwards ts"
    {|{"traceEvents":[
        {"name":"x","ph":"i","pid":1,"tid":0,"ts":5.0},
        {"name":"y","ph":"i","pid":1,"tid":0,"ts":4.0}]}|};
  reject "unknown phase"
    {|{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":0,"ts":1.0}]}|}

let test_chrome_summarize_smoke () =
  let j = Chrome.json ~run:"test" (sample_rings ()) in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Chrome.summarize j ppf ();
  let out = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  checkb "has track count" true (contains "worker tracks: 2");
  checkb "has phase table" true (contains "cell");
  checkb "has utilization" true (contains "utilization")

(* --- report format sniffing --------------------------------------------- *)

let test_classify_forward_compat () =
  let classify text = Sink.classify (Json.of_string text) in
  checkb "metrics snapshot" true
    (classify {|{"run":"x","metrics":[],"spans":[]}|} = Sink.Metrics_snapshot);
  (* unknown top-level keys must not change the classification *)
  checkb "metrics with extra keys" true
    (classify {|{"metrics":[],"future_field":{"a":1},"v":2}|}
    = Sink.Metrics_snapshot);
  checkb "trace" true (classify {|{"traceEvents":[]}|} = Sink.Trace);
  checkb "trace with extra keys" true
    (classify {|{"traceEvents":[],"displayTimeUnit":"ms","newer":true}|}
    = Sink.Trace);
  (match classify {|{"wholly":1,"foreign":2}|} with
  | Sink.Unknown keys -> checkb "keys reported" true (keys = [ "wholly"; "foreign" ])
  | _ -> Alcotest.fail "expected Unknown");
  checkb "non-object" true (classify {|[1,2]|} = Sink.Unknown []);
  (* extra top-level keys also must not break the metrics reader itself *)
  let samples =
    Sink.samples_of_json
      (Json.of_string {|{"metrics":[],"future_field":true}|})
  in
  checkb "reader tolerates extras" true (samples = [])

(* --- tracing must not perturb results ------------------------------------ *)

let test_sweep_identical_with_tracing () =
  let module Accuracy = Pift_eval.Accuracy in
  let apps =
    List.filteri (fun i _ -> i < 6) Pift_workloads.Droidbench.subset48
  in
  let nis = [ 1; 13 ] and nts = [ 1; 3 ] in
  let plain = Accuracy.sweep ~nis ~nts ~jobs:2 apps in
  let rings = Array.init 2 (fun _ -> Flight.create ()) in
  let traced = Accuracy.sweep ~nis ~nts ~rings ~jobs:2 apps in
  checkb "cells identical with tracing on" true
    (plain.Accuracy.cells = traced.Accuracy.cells);
  checkb "rings actually recorded" true
    (Array.exists (fun r -> Flight.length r > 0) rings);
  (* and the recorded rings export to a valid trace *)
  match Chrome.validate (Chrome.json rings) with
  | Ok c -> checkb "has cell spans" true (c.Chrome.c_spans > 0)
  | Error msg -> Alcotest.failf "sweep trace invalid: %s" msg

(* A traced sweep keeps its counter tracks fed: one max_tainted_bytes
   and one max_ranges sample per grid cell (repeats in [nts] count once)
   and one grid span per (recording, NI band) walk, across the worker
   rings. *)
let test_sweep_samples_per_cell () =
  let module Accuracy = Pift_eval.Accuracy in
  let apps =
    List.filteri (fun i _ -> i < 6) Pift_workloads.Droidbench.subset48
  in
  let nis = [ 13; 1; 4 ] and nts = [ 3; 1; 2; 3 ] in
  let rings = Array.init 2 (fun _ -> Flight.create ()) in
  let sweep = Accuracy.sweep ~nis ~nts ~rings ~jobs:2 apps in
  let count kind name =
    Array.fold_left
      (fun acc ring ->
        List.fold_left
          (fun acc (e : Flight.event) ->
            if e.Flight.kind = kind && name e.Flight.name then acc + 1 else acc)
          acc (Flight.events ring))
      0 rings
  in
  let cells = List.length sweep.Accuracy.cells in
  checki "cells" 9 cells;
  checki "one max_tainted_bytes sample per cell" cells
    (count Flight.Sample (String.equal "max_tainted_bytes"));
  checki "one max_ranges sample per cell" cells
    (count Flight.Sample (String.equal "max_ranges"));
  checki "one grid span per walk (6 apps x 2 NI bands)" 12
    (count Flight.Begin (fun n -> Pift_obs.Profile.phase_of n = "grid"))

let () =
  Alcotest.run "pift_flight"
    [
      ( "ring",
        [
          Alcotest.test_case "basic recording" `Quick test_ring_basic;
          Alcotest.test_case "wrap-around keeps newest" `Quick
            test_ring_wrap_keeps_newest;
          Alcotest.test_case "capacity 0 is a no-op" `Quick
            test_ring_capacity_zero_noop;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "merge preserves per-track order" `Quick
            test_timeline_merge_preserves_order;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export/validate round trip" `Quick
            test_chrome_round_trip;
          Alcotest.test_case "wrap imbalance repaired" `Quick
            test_chrome_repairs_wrap_imbalance;
          Alcotest.test_case "validator rejects bad traces" `Quick
            test_chrome_validate_rejects;
          Alcotest.test_case "summarize smoke" `Quick
            test_chrome_summarize_smoke;
        ] );
      ( "report sniffing",
        [
          Alcotest.test_case "forward compatible" `Quick
            test_classify_forward_compat;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "results identical with tracing on" `Quick
            test_sweep_identical_with_tracing;
          Alcotest.test_case "one counter sample per cell" `Quick
            test_sweep_samples_per_cell;
        ] );
    ]
