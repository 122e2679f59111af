(* Tests for Pift_par: pool scheduling semantics (ordering, chunking,
   exception propagation), Registry.merge as the per-domain metrics
   aggregation rule, and the end-to-end determinism guarantee — a
   parallel Accuracy.sweep must be indistinguishable from a serial one,
   cells and merged metrics both.  PIFT_TEST_JOBS overrides the domain
   count used by the parallel runs (default 4; CI also runs at 2). *)

module Pool = Pift_par.Pool
module Metric = Pift_obs.Metric
module Registry = Pift_obs.Registry
module Accuracy = Pift_eval.Accuracy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let test_jobs =
  match Sys.getenv_opt "PIFT_TEST_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ -> 4)
  | None -> 4

(* --- pool --------------------------------------------------------------- *)

let test_map_matches_array_map () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> i) in
          let expected = Array.map (fun x -> (x * 7) mod 13) input in
          let got =
            Pool.with_pool ~jobs (fun p ->
                Pool.map p ~f:(fun x -> (x * 7) mod 13) input)
          in
          checkb
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            true (got = expected))
        [ 0; 1; 2; 17; 100 ])
    [ 1; 2; test_jobs ]

let test_more_jobs_than_items () =
  let got =
    Pool.with_pool ~jobs:8 (fun p ->
        Pool.map p ~f:(fun x -> x + 1) [| 10; 20 |])
  in
  checkb "2 items, 8 jobs" true (got = [| 11; 21 |])

let test_chunked_scheduling () =
  let input = Array.init 37 (fun i -> i) in
  let got =
    Pool.with_pool ~jobs:test_jobs (fun p ->
        Pool.map p ~chunk:5 ~f:(fun x -> x * x) input)
  in
  checkb "chunk=5 preserves order" true
    (got = Array.map (fun x -> x * x) input)

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~jobs:test_jobs (fun p ->
      (try
         ignore
           (Pool.map p
              ~f:(fun x -> if x = 11 then raise (Boom x) else x)
              (Array.init 16 (fun i -> i)));
         Alcotest.fail "exception swallowed"
       with Boom 11 -> ());
      (* the pool survives a failed job and runs the next one *)
      let again = Pool.map p ~f:(fun x -> x + 1) [| 1; 2; 3 |] in
      checkb "pool usable after exception" true (again = [| 2; 3; 4 |]))

let test_map_reduce_fold_order () =
  let input = Array.init 12 (fun i -> string_of_int i) in
  (* non-commutative combine: string concatenation.  The fold must run
     sequentially in input-index order whatever the schedule. *)
  let got =
    Pool.with_pool ~jobs:test_jobs (fun p ->
        Pool.map_reduce p
          ~map:(fun s -> s ^ ".")
          ~combine:(fun acc s -> acc ^ s)
          ~init:"|" input)
  in
  checks "fold order" "|0.1.2.3.4.5.6.7.8.9.10.11." got

let test_map_slots_worker_bounds () =
  let jobs = test_jobs in
  Pool.with_pool ~jobs (fun p ->
      checki "pool jobs" jobs (Pool.jobs p);
      (* per-slot accumulators: no lock, summed after the region.  Each
         item also records the worker id it ran on; the bounds are
         asserted here, on the calling domain, because Alcotest's check
         functions are not domain-safe. *)
      let per_slot = Array.init jobs (fun _ -> ref 0) in
      let input = Array.init 64 (fun i -> i) in
      let workers = Array.make 64 (-1) in
      let out =
        Pool.map_slots p
          ~f:(fun ~worker i x ->
            workers.(i) <- worker;
            if worker >= 0 && worker < jobs then
              per_slot.(worker) := !(per_slot.(worker)) + 1;
            i + x)
        input
      in
      Array.iteri
        (fun i w ->
          checkb
            (Printf.sprintf "item %d: worker %d in range" i w)
            true
            (w >= 0 && w < jobs))
        workers;
      checkb "slots sum to items" true
        (Array.fold_left (fun a r -> a + !r) 0 per_slot = 64);
      checkb "results by input index" true
        (out = Array.init 64 (fun i -> 2 * i)))

(* --- Registry.merge ------------------------------------------------------ *)

let test_merge_counters_gauges () =
  let a = Registry.create () and b = Registry.create () in
  Metric.Counter.add (Registry.counter a "ops_total") 3;
  Metric.Counter.add (Registry.counter b "ops_total") 4;
  let ga = Registry.gauge a "bytes" and gb = Registry.gauge b "bytes" in
  Metric.Gauge.set ga 10;
  Metric.Gauge.set ga 2;
  (* a: value 2, peak 10 *)
  Metric.Gauge.set gb 6;
  (* b: value 6, peak 6 *)
  Registry.merge ~into:a b;
  checki "counters add" 7 (Option.get (Registry.find_counter a "ops_total"));
  Alcotest.(check (float 1e-9))
    "gauge keeps max value" 6.
    (Option.get (Registry.find_gauge a "bytes"));
  (match Registry.snapshot a with
  | [ _; bytes ] -> (
      match bytes.Registry.s_points with
      | [ ([], Registry.P_gauge { peak; _ }) ] ->
          Alcotest.(check (float 1e-9)) "gauge keeps max peak" 10. peak
      | _ -> Alcotest.fail "unexpected gauge point")
  | _ -> Alcotest.fail "expected 2 samples");
  (* source registry is untouched *)
  checki "src counter intact" 4
    (Option.get (Registry.find_counter b "ops_total"))

let test_merge_histograms_and_families () =
  let a = Registry.create () and b = Registry.create () in
  let ha = Registry.histogram a "trace_len" in
  List.iter (Metric.Histogram.observe ha) [ 1; 2; 100 ];
  let hb = Registry.histogram b "trace_len" in
  List.iter (Metric.Histogram.observe hb) [ 3; 200 ];
  let fam_b = Registry.counter_family b ~label:"pid" "per_pid_total" in
  Metric.Counter.incr (fam_b "1");
  Metric.Counter.add (fam_b "2") 5;
  Registry.merge ~into:a b;
  (match Registry.snapshot a with
  | [ h; fam ] ->
      (match h.Registry.s_points with
      | [ ([], Registry.P_histogram { count; sum; vmax; _ }) ] ->
          checki "hist count" 5 count;
          checki "hist sum" 306 sum;
          checki "hist vmax" 200 vmax
      | _ -> Alcotest.fail "unexpected histogram point");
      checks "family registered by merge" "per_pid_total"
        fam.Registry.s_name;
      (match fam.Registry.s_points with
      | [
       ([ ("pid", "1") ], Registry.P_counter 1);
       ([ ("pid", "2") ], Registry.P_counter 5);
      ] ->
          ()
      | _ -> Alcotest.fail "unexpected family points")
  | l -> Alcotest.failf "expected 2 samples, got %d" (List.length l));
  (* kind conflict still raises through merge *)
  let c = Registry.create () in
  ignore (Registry.gauge c "trace_len");
  checkb "merge kind conflict raises" true
    (try
       Registry.merge ~into:c a;
       false
     with Invalid_argument _ -> true)

let test_merge_empty_is_identity () =
  let a = Registry.create () in
  Metric.Counter.add (Registry.counter a "n") 2;
  let before = Registry.snapshot a in
  Registry.merge ~into:a (Registry.create ());
  checkb "merge of empty is identity" true (before = Registry.snapshot a)

(* --- sweep determinism (serial vs parallel) ------------------------------ *)

let strip_spans samples =
  (* spans measure wall-clock; everything else must match exactly *)
  List.filter
    (fun s -> not (String.length s.Registry.s_name >= 4
                   && String.sub s.Registry.s_name 0 4 = "span"))
    samples

let test_sweep_parallel_deterministic () =
  let apps =
    List.filteri (fun i _ -> i < 10) Pift_workloads.Droidbench.subset48
  in
  let nis = [ 1; 3; 13 ] and nts = [ 1; 3 ] in
  let run jobs =
    let registry = Registry.create () in
    let s = Accuracy.sweep ~nis ~nts ~metrics:registry ~jobs apps in
    (s, Registry.snapshot registry)
  in
  let serial, serial_snap = run 1 in
  let parallel, parallel_snap = run test_jobs in
  checki "apps" serial.Accuracy.apps parallel.Accuracy.apps;
  checkb "identical cells" true
    (serial.Accuracy.cells = parallel.Accuracy.cells);
  (* cells arrive sorted ascending by (ni, nt) in both runs *)
  let keys = List.map fst serial.Accuracy.cells in
  checkb "cells sorted" true (keys = List.sort compare keys);
  checki "cell count" (List.length nis * List.length nts)
    (List.length serial.Accuracy.cells);
  checkb "identical merged metrics" true
    (strip_spans serial_snap = strip_spans parallel_snap)

let () =
  Alcotest.run "pift_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick
            test_map_matches_array_map;
          Alcotest.test_case "more jobs than items" `Quick
            test_more_jobs_than_items;
          Alcotest.test_case "chunked scheduling" `Quick
            test_chunked_scheduling;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "map_reduce fold order" `Quick
            test_map_reduce_fold_order;
          Alcotest.test_case "map_slots worker bounds" `Quick
            test_map_slots_worker_bounds;
        ] );
      ( "registry merge",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_merge_counters_gauges;
          Alcotest.test_case "histograms and families" `Quick
            test_merge_histograms_and_families;
          Alcotest.test_case "empty merge is identity" `Quick
            test_merge_empty_is_identity;
        ] );
      ( "sweep determinism",
        [
          Alcotest.test_case "serial = parallel" `Quick
            test_sweep_parallel_deterministic;
        ] );
    ]
