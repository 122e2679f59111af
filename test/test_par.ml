(* Tests for Pift_par: pool scheduling semantics (ordering, chunking,
   exception propagation) and the end-to-end determinism guarantee — a
   parallel Accuracy.sweep must be indistinguishable from a serial one,
   cells and metrics both.  PIFT_TEST_JOBS overrides the domain
   count used by the parallel runs (default 4; CI also runs at 2). *)

module Pool = Pift_par.Pool
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

(* --- sweep determinism (serial vs parallel) ------------------------------ *)

let test_sweep_parallel_deterministic () =
  let apps =
    List.filteri (fun i _ -> i < 10) Pift_workloads.Droidbench.subset48
  in
  let nis = [ 1; 3; 13 ] and nts = [ 1; 3 ] in
  let run jobs =
    let s = Accuracy.sweep ~nis ~nts ~jobs apps in
    (s, Pift_eval.Metrics.samples [ Sweep s ])
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
  checkb "identical metrics" true (serial_snap = parallel_snap)

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
      ( "sweep determinism",
        [
          Alcotest.test_case "serial = parallel" `Quick
            test_sweep_parallel_deterministic;
        ] );
    ]
