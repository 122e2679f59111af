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

(* --- lazy spawn ----------------------------------------------------------- *)

(* Threads of this process, where [/proc/self/task] exists.  These
   cases run first, before any other case has spawned a domain, so a
   count can only fall through a thread still exiting. *)
let threads () =
  if Sys.file_exists "/proc/self/task" then
    Some (Array.length (Sys.readdir "/proc/self/task"))
  else None

let check_no_new_thread what before =
  match (before, threads ()) with
  | Some b, Some a ->
      checkb (Printf.sprintf "%s: no thread started (%d -> %d)" what b a) true
        (a <= b)
  | _ -> ()

let test_pool_never_run () =
  let before = threads () in
  let p = Pool.create ~jobs:3 () in
  check_no_new_thread "create" before;
  checki "jobs" 3 (Pool.jobs p);
  let t0 = Unix.gettimeofday () in
  Pool.shutdown p;
  Pool.shutdown p;
  checkb "shutdown returns at once" true (Unix.gettimeofday () -. t0 < 1.0);
  checkb "empty map needs no job" true (Pool.map p ~f:succ [||] = [||])

let test_pool_first_job_raises () =
  let jobs = 3 in
  Pool.with_pool ~jobs (fun p ->
      (* Slot 0 raises at once; the others finish later, one of them
         raising too.  The first failure re-raises only once both have
         counted themselves out. *)
      let drained = Atomic.make 0 in
      (match
         Pool.run_job p (fun ~worker ->
             if worker = 0 then raise (Boom 0);
             Unix.sleepf 0.02;
             Atomic.incr drained;
             if worker = 1 then raise (Boom 1))
       with
      | () -> Alcotest.fail "exception swallowed"
      | exception Boom w -> checki "first failure" 0 w);
      checki "every worker drained" (jobs - 1) (Atomic.get drained);
      let calls = Array.make jobs 0 in
      Pool.run_job p (fun ~worker -> calls.(worker) <- calls.(worker) + 1);
      checkb "second job: one call per slot" true
        (calls = Array.make jobs 1))

let test_pool_after_shutdown () =
  List.iter
    (fun (jobs, warm) ->
      let p = Pool.create ~jobs () in
      if warm then Pool.run_job p (fun ~worker:_ -> ());
      Pool.shutdown p;
      checkb
        (Printf.sprintf "jobs %d, %s: run_job refused" jobs
           (if warm then "after a job" else "never run"))
        true
        (match Pool.run_job p (fun ~worker:_ -> ()) with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ (1, false); (2, false); (2, true) ]

module Engine = Pift_service.Engine

let test_engine_without_run () =
  let before = threads () in
  let eng = Engine.create ~shards:2 () in
  check_no_new_thread "Engine.create" before;
  Engine.register_tenant eng ~pid:Engine.pid_range ~name:"idle" ();
  let st = Engine.stats eng in
  checki "shards" 2 (List.length st.Engine.st_shards);
  checki "tenants" 1 st.Engine.st_tenants;
  checki "items" 0 st.Engine.st_items;
  (match Engine.snapshot_tenant eng ~pid:Engine.pid_range with
  | Some ts ->
      checks "name" "idle" ts.Engine.ts_name;
      checki "no verdicts" 0 (List.length ts.Engine.ts_verdicts);
      checki "no events" 0 ts.Engine.ts_stats.Pift_core.Tracker.events
  | None -> Alcotest.fail "registered tenant missing");
  check_no_new_thread "idle reads" before;
  Engine.shutdown eng;
  Engine.shutdown eng;
  checki "stats after shutdown" 1 (Engine.stats eng).Engine.st_tenants;
  checkb "run refused after shutdown" true
    (match Engine.run eng (fun () -> None) with
    | () -> false
    | exception Invalid_argument _ -> true)

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
      (* First: the thread counts assume no earlier case spawned. *)
      ( "lazy spawn",
        [
          Alcotest.test_case "never-run pool shuts down" `Quick
            test_pool_never_run;
          Alcotest.test_case "first job raises, pool reusable" `Quick
            test_pool_first_job_raises;
          Alcotest.test_case "run_job after shutdown" `Quick
            test_pool_after_shutdown;
          Alcotest.test_case "engine without a run" `Quick
            test_engine_without_run;
        ] );
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
