(* Tests for Pift_obs: metric primitives, registry snapshots, span
   nesting, sink golden outputs, and the guarantee that instrumenting a
   replay does not perturb the legacy Tracker.stats record. *)

module Metric = Pift_obs.Metric
module Registry = Pift_obs.Registry
module Profile = Pift_obs.Profile
module Json = Pift_obs.Json
module Sink = Pift_obs.Sink
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Recorded = Pift_eval.Recorded

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- registry ------------------------------------------------------------ *)

let test_registry_round_trip () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"events seen" "app_events_total" in
  Metric.Counter.incr c;
  Metric.Counter.add c 2;
  let g = Registry.gauge reg ~help:"live bytes" "app_bytes" in
  Metric.Gauge.set g 7;
  Metric.Gauge.set g 4;
  let per =
    Registry.counter_family reg ~help:"per pid" ~label:"pid" "app_ops_total"
  in
  Metric.Counter.incr (per "1");
  Metric.Counter.incr (per "2");
  Metric.Counter.incr (per "1");
  (* registration is idempotent: same name returns the same cell *)
  Metric.Counter.incr (Registry.counter reg "app_events_total");
  checki "counter via find" 4
    (Option.get (Registry.find_counter reg "app_events_total"));
  Alcotest.(check (float 1e-9))
    "gauge via find" 4.
    (Option.get (Registry.find_gauge reg "app_bytes"));
  (* conflicting re-registration raises *)
  checkb "kind conflict raises" true
    (try
       ignore (Registry.gauge reg "app_events_total");
       false
     with Invalid_argument _ -> true);
  match Registry.snapshot reg with
  | [ events; bytes; ops ] ->
      checks "first sample" "app_events_total" events.Registry.s_name;
      checks "help kept" "events seen" events.Registry.s_help;
      (match events.Registry.s_points with
      | [ ([], Registry.P_counter 4) ] -> ()
      | _ -> Alcotest.fail "unexpected counter points");
      (match bytes.Registry.s_points with
      | [ ([], Registry.P_gauge { value = 4.; peak = 7. }) ] -> ()
      | _ -> Alcotest.fail "unexpected gauge point");
      (match ops.Registry.s_points with
      | [
       ([ ("pid", "1") ], Registry.P_counter 2);
       ([ ("pid", "2") ], Registry.P_counter 1);
      ] ->
          ()
      | _ -> Alcotest.fail "unexpected family points")
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l)

(* --- histogram bucket boundaries ----------------------------------------- *)

let test_histogram_buckets () =
  checki "bucket of 0" 0 (Metric.Histogram.bucket_of 0);
  checki "bucket of -5" 0 (Metric.Histogram.bucket_of (-5));
  checki "bucket of 1" 1 (Metric.Histogram.bucket_of 1);
  checki "bucket of 2" 2 (Metric.Histogram.bucket_of 2);
  checki "bucket of 3" 2 (Metric.Histogram.bucket_of 3);
  checki "bucket of 4" 3 (Metric.Histogram.bucket_of 4);
  checki "bucket of 7" 3 (Metric.Histogram.bucket_of 7);
  checki "bucket of 8" 4 (Metric.Histogram.bucket_of 8);
  checki "lower bound of 3" 4 (Metric.Histogram.lower_bound 3);
  checki "upper bound of 3" 7 (Metric.Histogram.upper_bound 3);
  let h = Metric.Histogram.create () in
  List.iter (Metric.Histogram.observe h) [ 1; 2; 3; 4; 7; 8 ];
  checki "count" 6 (Metric.Histogram.count h);
  checki "sum" 25 (Metric.Histogram.sum h);
  checki "max" 8 (Metric.Histogram.max_value h);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets"
    [ (1, 1); (3, 2); (7, 2); (15, 1) ]
    (Metric.Histogram.nonzero_buckets h)

(* --- spans --------------------------------------------------------------- *)

(* Snapshot spans are [Profile]-timed regions, nested by path. *)
let test_span_nesting () =
  let p = Profile.create () in
  let v =
    Profile.span (Some p) "outer" (fun () ->
        ignore (Profile.span (Some p) "a" (fun () -> 1));
        ignore (Profile.span (Some p) "b" (fun () -> 2));
        42)
  in
  checki "span returns f's value" 42 v;
  (* a raising body is still timed and filed *)
  (try Profile.span (Some p) "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  let field conv name j = Option.get (Option.bind (Json.member name j) conv) in
  let str = field Json.to_str and num = field Json.to_float in
  let children = field Json.to_list "children" in
  let spans =
    field Json.to_list "spans"
      (Sink.snapshot_to_json ~spans:(Profile.folded p) [])
  in
  Alcotest.(check (list string))
    "roots in order, raising one filed" [ "outer"; "boom" ]
    (List.map (str "name") spans);
  let outer = List.hd spans in
  Alcotest.(check (list string))
    "children in start order" [ "a"; "b" ]
    (List.map (str "name") (children outer));
  let below =
    List.fold_left (fun acc c -> acc +. num "seconds" c) 0. (children outer)
  in
  checkb "parent covers children" true (num "seconds" outer >= below);
  (* A snapshot written while spans were their own tree type decodes to
     rows that encode back to the same bytes. *)
  let old =
    {|{"metrics":[],"spans":[{"name":"run","seconds":0.5,"children":[|}
    ^ {|{"name":"record","seconds":0.125,"children":[]},|}
    ^ {|{"name":"replay","seconds":0.25,"children":[|}
    ^ {|{"name":"store","seconds":0.0625,"children":[]}]}]}]}|}
  in
  let rows = Sink.spans_of_json (Json.of_string old) in
  Alcotest.(check (list (pair string (float 1e-12))))
    "nested tree decodes to self-time rows"
    [
      ("run", 0.125);
      ("run;record", 0.125);
      ("run;replay", 0.1875);
      ("run;replay;store", 0.0625);
    ]
    rows;
  checks "rows encode back to the same tree" old
    (Json.to_string (Sink.snapshot_to_json ~spans:rows []))

(* --- sinks --------------------------------------------------------------- *)

let golden_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"events seen" "app_events_total" in
  Metric.Counter.add c 3;
  let g = Registry.gauge reg ~help:"live bytes" "app_bytes" in
  Metric.Gauge.set g 7;
  Metric.Gauge.set g 4;
  let h = Registry.histogram reg ~help:"payload sizes" "app_sizes" in
  Metric.Histogram.observe h 1;
  Metric.Histogram.observe h 5;
  let per =
    Registry.counter_family reg ~help:"per pid" ~label:"pid" "app_ops_total"
  in
  Metric.Counter.add (per "1") 2;
  Metric.Counter.incr (per "2");
  reg

let golden_spans = [ ("run", 0.125); ("run;replay", 0.125) ]

let test_jsonl_golden () =
  let json =
    Sink.snapshot_to_json ~run:"golden" ~spans:golden_spans
      (Registry.snapshot (golden_registry ()))
  in
  checks "jsonl line"
    ("{\"run\":\"golden\",\"metrics\":["
    ^ "{\"name\":\"app_events_total\",\"kind\":\"counter\",\
       \"help\":\"events seen\",\"points\":[{\"labels\":{},\"value\":3}]},"
    ^ "{\"name\":\"app_bytes\",\"kind\":\"gauge\",\"help\":\"live bytes\",\
       \"points\":[{\"labels\":{},\"value\":4.0,\"peak\":7.0}]},"
    ^ "{\"name\":\"app_sizes\",\"kind\":\"histogram\",\
       \"help\":\"payload sizes\",\"points\":[{\"labels\":{},\"count\":2,\
       \"sum\":6,\"max\":5,\"buckets\":[[1,1],[7,1]]}]},"
    ^ "{\"name\":\"app_ops_total\",\"kind\":\"counter\",\
       \"help\":\"per pid\",\"points\":[{\"labels\":{\"pid\":\"1\"},\
       \"value\":2},{\"labels\":{\"pid\":\"2\"},\"value\":1}]}],"
    ^ "\"spans\":[{\"name\":\"run\",\"seconds\":0.25,\"children\":\
       [{\"name\":\"replay\",\"seconds\":0.125,\"children\":[]}]}]}")
    (Json.to_string json);
  (* and the decoder inverts the encoder *)
  let reparsed = Json.of_string (Json.to_string json) in
  checks "run survives" "golden" (Sink.run_of_json reparsed);
  checkb "samples survive" true
    (Sink.samples_of_json reparsed = Registry.snapshot (golden_registry ()));
  checkb "spans survive" true (Sink.spans_of_json reparsed = golden_spans)

let test_prometheus_golden () =
  let rendered =
    Format.asprintf "%a"
      (fun ppf () ->
        Sink.prometheus (Registry.snapshot (golden_registry ())) ppf ())
      ()
  in
  checks "prometheus exposition"
    "# HELP app_events_total events seen\n\
     # TYPE app_events_total counter\n\
     app_events_total 3\n\
     # HELP app_bytes live bytes\n\
     # TYPE app_bytes gauge\n\
     app_bytes 4\n\
     # TYPE app_bytes_peak gauge\n\
     app_bytes_peak 7\n\
     # HELP app_sizes payload sizes\n\
     # TYPE app_sizes histogram\n\
     app_sizes_bucket{le=\"1\"} 1\n\
     app_sizes_bucket{le=\"7\"} 2\n\
     app_sizes_bucket{le=\"+Inf\"} 2\n\
     app_sizes_sum 6\n\
     app_sizes_count 2\n\
     # HELP app_ops_total per pid\n\
     # TYPE app_ops_total counter\n\
     app_ops_total{pid=\"1\"} 2\n\
     app_ops_total{pid=\"2\"} 1\n"
    rendered

let test_prometheus_label_escaping () =
  (* Exactly backslash, double quote, and newline are escaped; tabs and
     other bytes pass through raw.  %S-style OCaml escaping would mangle
     the tab into \t, which Prometheus parsers reject. *)
  let reg = Registry.create () in
  let per = Registry.counter_family reg ~label:"kind" "esc_total" in
  Metric.Counter.incr (per "back\\slash");
  Metric.Counter.incr (per "quo\"te");
  Metric.Counter.incr (per "new\nline");
  Metric.Counter.incr (per "tab\there");
  let rendered =
    Format.asprintf "%a"
      (fun ppf () -> Sink.prometheus (Registry.snapshot reg) ppf ())
      ()
  in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec go i =
      i + n <= h && (String.sub rendered i n = needle || go (i + 1))
    in
    go 0
  in
  checkb "backslash doubled" true
    (contains "esc_total{kind=\"back\\\\slash\"} 1");
  checkb "quote escaped" true (contains "esc_total{kind=\"quo\\\"te\"} 1");
  checkb "newline escaped" true (contains "esc_total{kind=\"new\\nline\"} 1");
  checkb "tab passes through raw" true
    (contains "esc_total{kind=\"tab\there\"} 1")

(* --- registry merge edge cases ------------------------------------------- *)

let test_merge_empty_sides () =
  (* empty source into a populated target: nothing moves *)
  let into = golden_registry () in
  let before = Registry.snapshot into in
  Registry.merge ~into (Registry.create ());
  checkb "empty source is identity" true (Registry.snapshot into = before);
  (* populated source into an empty target: everything lands, in the
     source's registration order *)
  let into = Registry.create () in
  Registry.merge ~into (golden_registry ());
  checkb "empty target adopts the source" true
    (Registry.snapshot into = Registry.snapshot (golden_registry ()))

let test_merge_histogram_boundaries () =
  (* values straddling a power-of-two bucket edge must merge bucket by
     bucket, not by re-bucketing the sum *)
  let mk vs =
    let reg = Registry.create () in
    let h = Registry.histogram reg "m_sizes" in
    List.iter (Metric.Histogram.observe h) vs;
    reg
  in
  let into = mk [ 7; 8 ] in
  (* upper edge of bucket 3, lower edge of bucket 4 *)
  Registry.merge ~into (mk [ 1; 7; 16 ]);
  match Registry.snapshot into with
  | [
   {
     Registry.s_points =
       [ ([], Registry.P_histogram { count; sum; vmax; buckets }) ];
     _;
   };
  ] ->
      checki "counts add" 5 count;
      checki "sums add" 39 sum;
      checki "max of maxes" 16 vmax;
      Alcotest.(check (list (pair int int)))
        "buckets add cell-wise"
        [ (1, 1); (7, 2); (15, 1); (31, 1) ]
        buckets
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_merge_four_domain_gauge_max () =
  (* the sweep merges one registry per worker slot; a high-water gauge
     must surface the global maximum whichever slot saw it *)
  let slot v peak =
    let reg = Registry.create () in
    let g = Registry.gauge reg "m_bytes" in
    Metric.Gauge.set g peak;
    Metric.Gauge.set g v;
    reg
  in
  let into = slot 3 5 in
  List.iter (Registry.merge ~into) [ slot 2 9; slot 4 4; slot 1 7 ];
  match Registry.snapshot into with
  | [ { Registry.s_points = [ ([], Registry.P_gauge { value; peak }) ]; _ } ]
    ->
      Alcotest.(check (float 1e-9)) "value is the slot max" 4. value;
      Alcotest.(check (float 1e-9)) "peak is the global high-water" 9. peak
  | _ -> Alcotest.fail "unexpected snapshot shape"

(* --- instrumentation must not perturb results ---------------------------- *)

(* Final occupancy of a recording's replay, read off a tracker fed the
   recording's items — independent of the metrics publish path. *)
let final_occupancy recorded =
  let t = Tracker.create ~policy:Policy.default () in
  let next = Recorded.items recorded in
  let rec loop () =
    match next () with
    | None -> ()
    | Some (Recorded.Item_event e) ->
        Tracker.observe t e;
        loop ()
    | Some (Recorded.Item_marker (_, Recorded.Source { kind; range })) ->
        Tracker.taint_source ~kind t ~pid:recorded.Recorded.pid range;
        loop ()
    | Some (Recorded.Item_marker (_, Recorded.Sink _)) -> loop ()
  in
  loop ();
  (Tracker.current_tainted_bytes t, Tracker.current_ranges t)

let test_metrics_do_not_change_stats () =
  List.iter
    (fun name ->
      let app = Option.get (Pift_workloads.Droidbench.find name) in
      let recorded = Recorded.record app in
      let plain = Recorded.replay ~policy:Policy.default recorded in
      let registry = Registry.create () in
      let metered =
        Recorded.replay ~metrics:registry ~policy:Policy.default recorded
      in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      checkb (name ^ ": stats identical") true
        (plain.Recorded.stats = metered.Recorded.stats);
      checkb (name ^ ": verdicts identical") true
        (plain.Recorded.verdicts = metered.Recorded.verdicts);
      (* and the registry agrees with the stats record, cell by cell *)
      let s = metered.Recorded.stats in
      let samples = Registry.snapshot registry in
      let point metric labels =
        match
          List.find_opt (fun sm -> sm.Registry.s_name = metric) samples
        with
        | None -> Alcotest.failf "%s: %s not registered" name metric
        | Some sm -> List.assoc_opt labels sm.Registry.s_points
      in
      let counter ?(labels = []) metric =
        match point metric labels with
        | Some (Registry.P_counter v) -> v
        | _ -> Alcotest.failf "%s: %s is not a counter cell" name metric
      in
      let gauge metric =
        match point metric [] with
        | Some (Registry.P_gauge { value; peak }) ->
            (int_of_float value, int_of_float peak)
        | _ -> Alcotest.failf "%s: %s is not a gauge" name metric
      in
      check "events" s.Tracker.events (counter "pift_tracker_events_total");
      check "lookups" s.Tracker.lookups (counter "pift_tracker_lookups_total");
      check "tainted loads" s.Tracker.tainted_loads
        (counter "pift_tracker_tainted_loads_total");
      check "taint ops" s.Tracker.taint_ops
        (counter "pift_tracker_taint_ops_total");
      check "untaint ops" s.Tracker.untaint_ops
        (counter "pift_tracker_untaint_ops_total");
      check "window opens of the recording's pid" s.Tracker.tainted_loads
        (counter
           ~labels:[ ("pid", string_of_int recorded.Recorded.pid) ]
           "pift_tracker_window_opens_total");
      let bytes, ranges = final_occupancy recorded in
      let bytes_value, bytes_peak = gauge "pift_tracker_tainted_bytes" in
      let ranges_value, ranges_peak = gauge "pift_tracker_ranges" in
      check "tainted bytes gauge" bytes bytes_value;
      check "tainted bytes peak" s.Tracker.max_tainted_bytes bytes_peak;
      check "ranges gauge" ranges ranges_value;
      check "ranges peak" s.Tracker.max_ranges ranges_peak)
    [ "StringConcat1"; "BenignOverwrite1" ]

let () =
  Alcotest.run "pift_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "round trip" `Quick test_registry_round_trip;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        ] );
      ("span", [ Alcotest.test_case "nesting" `Quick test_span_nesting ]);
      ( "sink",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "merge",
        [
          Alcotest.test_case "empty sides" `Quick test_merge_empty_sides;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_merge_histogram_boundaries;
          Alcotest.test_case "four-domain gauge max" `Quick
            test_merge_four_domain_gauge_max;
        ] );
      ( "replay",
        [
          Alcotest.test_case "stats unchanged under metrics" `Quick
            test_metrics_do_not_change_stats;
        ] );
    ]
