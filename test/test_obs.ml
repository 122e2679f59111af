(* Tests for Pift_obs: snapshot samples, span nesting, sink golden
   outputs, and the guarantee that a run's metrics are its own counters:
   the tracker cells of the snapshot equal the replay's Tracker.stats. *)

module Registry = Pift_obs.Registry
module Profile = Pift_obs.Profile
module Flight = Pift_obs.Flight
module Json = Pift_obs.Json
module Sink = Pift_obs.Sink
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Recorded = Pift_eval.Recorded

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- registry ------------------------------------------------------------ *)

let counter ?(help = "") name v =
  {
    Registry.s_name = name;
    s_help = help;
    s_kind = Registry.Counter_kind;
    s_points = [ ([], Registry.P_counter v) ];
  }

let family ?(help = "") ~label name points =
  {
    Registry.s_name = name;
    s_help = help;
    s_kind = Registry.Counter_kind;
    s_points =
      List.map (fun (v, n) -> ([ (label, v) ], Registry.P_counter n)) points;
  }

(* Every kind of point, a family without points (a per-pid counter of a
   run that opened no window) and an empty help survive the JSONL
   encoder and decoder unchanged, in order. *)
let test_registry_round_trip () =
  let samples =
    [
      counter ~help:"events seen" "app_events_total" 4;
      {
        Registry.s_name = "app_bytes";
        s_help = "live bytes";
        s_kind = Registry.Gauge_kind;
        s_points = [ ([], Registry.P_gauge { value = 4.; peak = 7. }) ];
      };
      {
        Registry.s_name = "app_sizes";
        s_help = "";
        s_kind = Registry.Histogram_kind;
        s_points = [ ([], Registry.log2_histogram [ 0; 3; 1000 ]) ];
      };
      family ~help:"per pid" ~label:"pid" "app_ops_total"
        [ ("1", 2); ("2", 1) ];
      family ~help:"per pid" ~label:"pid" "app_windows_total" [];
    ]
  in
  let line = Json.to_string (Sink.snapshot_to_json ~run:"rt" samples) in
  checkb "samples survive" true
    (Sink.samples_of_json (Json.of_string line) = samples);
  checks "a family without points renders its header only"
    "# HELP app_windows_total per pid\n# TYPE app_windows_total counter\n"
    (Format.asprintf "%a"
       (fun ppf () -> Sink.prometheus [ List.nth samples 4 ] ppf ())
       ())

(* --- histogram bucket boundaries ----------------------------------------- *)

let histogram vs =
  match Registry.log2_histogram vs with
  | Registry.P_histogram { count; sum; vmax; buckets } ->
      (count, sum, vmax, buckets)
  | Registry.P_counter _ | Registry.P_gauge _ ->
      Alcotest.fail "not a histogram"

let test_histogram_buckets () =
  let buckets vs =
    let _, _, _, b = histogram vs in
    b
  in
  let bucket_list = Alcotest.(list (pair int int)) in
  Alcotest.check bucket_list "0 and below share bucket 0" [ (0, 2) ]
    (buckets [ 0; -5 ]);
  Alcotest.check bucket_list "1 | 2 3 | 4 7 | 8: upper bounds 1, 3, 7, 15"
    [ (1, 1); (3, 2); (7, 2); (15, 1) ]
    (buckets [ 1; 2; 3; 4; 7; 8 ]);
  let count, sum, vmax, _ = histogram [ 1; 2; 3; 4; 7; 8 ] in
  checki "count" 6 count;
  checki "sum" 25 sum;
  checki "max" 8 vmax;
  checkb "no observation" true (histogram [] = (0, 0, 0, []))

let test_merge_histogram_boundaries () =
  (* values straddling a power-of-two edge (7 | 8, 15 | 16), recorded by
     two workers: the histogram of their pooled observations is the
     cell-wise sum of the two, not a re-bucketing of the sums *)
  let a = [ 7; 8 ] and b = [ 1; 7; 16 ] in
  let ca, sa, ma, ba = histogram a and cb, sb, mb, bb = histogram b in
  let count, sum, vmax, buckets = histogram (a @ b) in
  checki "counts add" (ca + cb) count;
  checki "counts" 5 count;
  checki "sums add" (sa + sb) sum;
  checki "sums" 39 sum;
  checki "max of maxes" (max ma mb) vmax;
  checki "max" 16 vmax;
  let add_cells xs ys =
    List.fold_left
      (fun acc (ub, n) ->
        let m = Option.value ~default:0 (List.assoc_opt ub acc) in
        (ub, m + n) :: List.remove_assoc ub acc)
      xs ys
    |> List.sort compare
  in
  let bucket_list = Alcotest.(list (pair int int)) in
  Alcotest.check bucket_list "buckets add cell-wise" (add_cells ba bb)
    buckets;
  Alcotest.check bucket_list "buckets"
    [ (1, 1); (7, 2); (15, 1); (31, 1) ]
    buckets

(* --- spans --------------------------------------------------------------- *)

(* Snapshot spans are a phase ring's spans, folded and nested by path.
   Phases are bracketed the way the CLI brackets them: the End goes in
   on the way out, exceptions included. *)
let test_span_nesting () =
  let ring = Flight.create ~capacity:64 () in
  let span name f =
    Flight.begin_ ring name;
    Fun.protect ~finally:(fun () -> Flight.end_ ring name) f
  in
  let v =
    span "outer" (fun () ->
        ignore (span "a" (fun () -> 1));
        ignore (span "b" (fun () -> 2));
        42)
  in
  checki "span returns f's value" 42 v;
  (* a raising body is still timed and filed *)
  (try span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  let field conv name j = Option.get (Option.bind (Json.member name j) conv) in
  let str = field Json.to_str and num = field Json.to_float in
  let children = field Json.to_list "children" in
  let spans =
    field Json.to_list "spans"
      (Sink.snapshot_to_json ~spans:(Profile.fold [| ring |]) [])
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

let golden_samples =
  [
    counter ~help:"events seen" "app_events_total" 3;
    {
      Registry.s_name = "app_bytes";
      s_help = "live bytes";
      s_kind = Registry.Gauge_kind;
      s_points = [ ([], Registry.P_gauge { value = 4.; peak = 7. }) ];
    };
    {
      Registry.s_name = "app_sizes";
      s_help = "payload sizes";
      s_kind = Registry.Histogram_kind;
      s_points = [ ([], Registry.log2_histogram [ 1; 5 ]) ];
    };
    family ~help:"per pid" ~label:"pid" "app_ops_total"
      [ ("1", 2); ("2", 1) ];
  ]

let golden_spans = [ ("run", 0.125); ("run;replay", 0.125) ]

let test_jsonl_golden () =
  let json =
    Sink.snapshot_to_json ~run:"golden" ~spans:golden_spans
      golden_samples
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
    (Sink.samples_of_json reparsed = golden_samples);
  checkb "spans survive" true (Sink.spans_of_json reparsed = golden_spans)

let test_prometheus_golden () =
  let rendered =
    Format.asprintf "%a"
      (fun ppf () ->
        Sink.prometheus golden_samples ppf ())
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
  let samples =
    [
      family ~label:"kind" "esc_total"
        [
          ("back\\slash", 1);
          ("quo\"te", 1);
          ("new\nline", 1);
          ("tab\there", 1);
        ];
    ]
  in
  let rendered =
    Format.asprintf "%a" (fun ppf () -> Sink.prometheus samples ppf ()) ()
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

(* --- the snapshot reads the run's own counters --------------------------- *)

(* Final occupancy of a recording's replay, read off a tracker fed the
   recording's events and markers one at a time — independent of the
   snapshot builder. *)
let final_occupancy recorded =
  let t = Tracker.create ~policy:Policy.default () in
  Per_event.interleave recorded ~observe:(Tracker.observe t)
    ~on_marker:(fun _ -> function
      | Recorded.Source { kind; range } ->
          Tracker.taint_source ~kind t ~pid:recorded.Recorded.pid range
      | Recorded.Sink _ -> ());
  (Tracker.current_tainted_bytes t, Tracker.current_ranges t)

let test_metrics_do_not_change_stats () =
  List.iter
    (fun name ->
      let app = Option.get (Pift_workloads.Droidbench.find name) in
      let recorded = Recorded.record app in
      let plain = Recorded.replay ~policy:Policy.default recorded in
      let store = Pift_core.Store.create () in
      let metered = Recorded.replay ~store ~policy:Policy.default recorded in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      checkb (name ^ ": stats identical") true
        (plain.Recorded.stats = metered.Recorded.stats);
      checkb (name ^ ": verdicts identical") true
        (plain.Recorded.verdicts = metered.Recorded.verdicts);
      (* and the snapshot agrees with the stats record, cell by cell *)
      let s = metered.Recorded.stats in
      let samples =
        Pift_eval.Metrics.samples
          [ Replay { recorded; replay = metered; store } ]
      in
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
      ( "merge",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_merge_histogram_boundaries;
        ] );
      ("span", [ Alcotest.test_case "nesting" `Quick test_span_nesting ]);
      ( "sink",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "replay",
        [
          Alcotest.test_case "stats unchanged under metrics" `Quick
            test_metrics_do_not_change_stats;
        ] );
    ]
