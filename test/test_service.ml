(* Tests for Pift_service: the Spsc queue contract, the engine's
   determinism claim (interleaved multi-tenant ingestion at every shard
   count is byte-identical to isolated replays — verdicts, origin sets,
   and stats), tenant eviction releasing all state, the backpressure
   policies, streaming trace readers, the per-pid provenance index, and
   Pool.run_job.  PIFT_TEST_JOBS is not used here: shard counts are the
   parameter under test and are fixed per case. *)

module Range = Pift_util.Range
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Storage = Pift_core.Storage
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Pool = Pift_par.Pool
module Rng = Pift_util.Rng
module Droidbench = Pift_workloads.Droidbench
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io
module Spsc = Pift_service.Spsc
module Engine = Pift_service.Engine
module Ingest = Pift_service.Ingest

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let app name =
  match Droidbench.find name with
  | Some a -> a
  | None -> Alcotest.failf "unknown app %s" name

(* Recordings shared across cases (recording is the slow part). *)
let recordings =
  lazy
    (List.map
       (fun n -> Recorded.record (app n))
       [ "StringConcat1"; "DirectLeak1"; "LogLeak1"; "Obfuscation1" ])

(* --- Spsc ---------------------------------------------------------------- *)

(* Batches are int arrays here; [[||]] fills the free slots. *)
let spsc ~capacity = Spsc.create ~capacity ~empty:[||]

(* Liveness under the watermark wake rule.  Each case that could hang
   runs under [within]: past its deadline a watchdog domain aborts the
   queue, which wakes every waiter, and the case fails instead of
   wedging the suite. *)
let within q f =
  let seconds = 20. in
  let finished = Atomic.make false and fired = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.005
        done;
        if not (Atomic.get finished) then begin
          Atomic.set fired true;
          Spsc.abort q
        end)
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Domain.join dog)
      (fun () -> try Ok (f ()) with e -> Error e)
  in
  if Atomic.get fired then Alcotest.failf "timed out after %.0f s" seconds;
  match r with Ok v -> v | Error e -> raise e

(* Poll until [cond] holds; on timeout abort [q] (releasing any domain
   parked on it) and fail. *)
let wait_until q ~what cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then begin
      Spsc.abort q;
      Alcotest.failf "timed out waiting for %s" what
    end;
    Unix.sleepf 0.001
  done

let push_blocking q i =
  match Spsc.push q ~drop_when_full:false [| i |] with
  | Spsc.Pushed -> ()
  | Spsc.Dropped -> Alcotest.fail "blocking push dropped"

(* A consumer domain popping until [None]; [got] counts its batches. *)
let spawn_consumer q got =
  Domain.spawn (fun () ->
      let rec go acc =
        match Spsc.pop q with
        | Some b ->
            Atomic.incr got;
            go (b.(0) :: acc)
        | None -> List.rev acc
      in
      go [])

let test_spsc_fifo () =
  let q = spsc ~capacity:4 in
  for i = 0 to 3 do
    match Spsc.push q ~drop_when_full:false [| i; i + 10; -1 |] with
    | Spsc.Pushed -> ()
    | Spsc.Dropped -> Alcotest.fail "push dropped below capacity"
  done;
  checki "depth" 4 (Spsc.length q);
  checki "max depth" 4 (Spsc.max_depth q);
  Spsc.close q;
  let drained = ref [] in
  let rec drain () =
    match Spsc.pop q with
    | Some b ->
        drained := !drained @ Array.to_list (Array.sub b 0 2);
        drain ()
    | None -> ()
  in
  drain ();
  checkb "fifo order" true
    (!drained = [ 0; 10; 1; 11; 2; 12; 3; 13 ]);
  checkb "pop after drain stays None" true (Spsc.pop q = None)

(* The ring wraps: interleaved pushes and pops past the capacity keep
   FIFO order and the depth bound. *)
let test_spsc_ring_wraps () =
  let q = spsc ~capacity:3 in
  let popped = ref [] in
  let pop () =
    match Spsc.pop q with
    | Some b -> popped := b.(0) :: !popped
    | None -> Alcotest.fail "pop returned None with batches queued"
  in
  for i = 0 to 9 do
    ignore (Spsc.push q ~drop_when_full:false [| i |]);
    if Spsc.length q = 3 then pop ()
  done;
  Spsc.close q;
  for _ = 1 to Spsc.length q do
    pop ()
  done;
  checkb "fifo across the wrap" true
    (List.rev !popped = List.init 10 Fun.id);
  checki "max depth is the capacity" 3 (Spsc.max_depth q)

let test_spsc_drop_when_full () =
  let q = spsc ~capacity:1 in
  checkb "first push fits" true
    (Spsc.push q ~drop_when_full:true [| 1 |] = Spsc.Pushed);
  checkb "second push drops" true
    (Spsc.push q ~drop_when_full:true [| 2; 3; 0; 0 |] = Spsc.Dropped);
  (* the queued batch is still intact *)
  checkb "survivor delivered" true (Spsc.pop q = Some [| 1 |]);
  (* At any capacity drop mode never waits: it queues up to the
     capacity and drops exactly the pushes that find the ring full. *)
  List.iter
    (fun capacity ->
      let q = spsc ~capacity in
      within q (fun () ->
          let results =
            List.init (capacity + 3) (fun i ->
                Spsc.push q ~drop_when_full:true [| i |])
          in
          checkb
            (Printf.sprintf "capacity %d: pushed up to full, then dropped"
               capacity)
            true
            (results
            = List.init (capacity + 3) (fun i ->
                  if i < capacity then Spsc.Pushed else Spsc.Dropped));
          ignore (Spsc.pop q);
          checkb "a freed slot takes the next push" true
            (Spsc.push q ~drop_when_full:true [| 9 |] = Spsc.Pushed)))
    [ 1; 2; 3; 5; 64 ]

(* A blocking push waits for the consumer instead of dropping. *)
let test_spsc_blocks_when_full () =
  let q = spsc ~capacity:1 in
  ignore (Spsc.push q ~drop_when_full:false [| 1 |]);
  let pushed = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        let r = Spsc.push q ~drop_when_full:false [| 2 |] in
        Atomic.set pushed true;
        r)
  in
  Unix.sleepf 0.05;
  checkb "producer blocked on the full queue" false (Atomic.get pushed);
  checkb "first batch popped" true (Spsc.pop q = Some [| 1 |]);
  checkb "blocked push then lands" true (Domain.join producer = Spsc.Pushed);
  checkb "second batch popped" true (Spsc.pop q = Some [| 2 |])

let test_spsc_abort () =
  let q = spsc ~capacity:1 in
  ignore (Spsc.push q ~drop_when_full:false [| 1 |]);
  Spsc.abort q;
  (* a blocked producer would have been woken; pushes now drop *)
  checkb "push after abort drops" true
    (Spsc.push q ~drop_when_full:false [| 2; 0 |] = Spsc.Dropped);
  checkb "pop after abort is None" true (Spsc.pop q = None);
  checki "queued batch discarded" 0 (Spsc.length q)

let test_spsc_close_rejects_push () =
  let q = spsc ~capacity:1 in
  Spsc.close q;
  checkb "push after close raises" true
    (try
       ignore (Spsc.push q ~drop_when_full:false [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* A consumer parked on the empty ring is woken by [close] even though
   the two batches queued since stay below the watermark. *)
let test_spsc_close_wakes_parked_consumer () =
  let q = spsc ~capacity:8 in
  within q (fun () ->
      let consumer = spawn_consumer q (Atomic.make 0) in
      Unix.sleepf 0.05 (* let it park *);
      push_blocking q 0;
      push_blocking q 1;
      Spsc.close q;
      checkb "close drains the partly filled ring" true
        (Domain.join consumer = [ 0; 1 ]))

(* Filling half the ring wakes a parked consumer without [close]; in
   drop mode a single push does. *)
let test_spsc_watermark_wakes_consumer () =
  List.iter
    (fun (drop_when_full, pushes) ->
      let q = spsc ~capacity:8 in
      let got = Atomic.make 0 in
      within q (fun () ->
          let consumer = spawn_consumer q got in
          Unix.sleepf 0.05;
          for i = 1 to pushes do
            ignore (Spsc.push q ~drop_when_full [| i |])
          done;
          wait_until q
            ~what:(Printf.sprintf "%d batches (drop_when_full %b)" pushes
                     drop_when_full)
            (fun () -> Atomic.get got = pushes);
          Spsc.close q;
          checki "all delivered" pushes (List.length (Domain.join consumer))))
    [ (false, 4); (true, 1) ]

(* A producer parked on a full ring lands once the consumer has
   drained it to half, and [abort] releases a parked producer with
   [Dropped]. *)
let test_spsc_parked_producer () =
  let q = spsc ~capacity:4 in
  within q (fun () ->
      for i = 0 to 3 do
        push_blocking q i
      done;
      let landed = Atomic.make false in
      let producer =
        Domain.spawn (fun () ->
            push_blocking q 4;
            Atomic.set landed true)
      in
      Unix.sleepf 0.05;
      ignore (Spsc.pop q);
      ignore (Spsc.pop q);
      wait_until q ~what:"the parked push to land" (fun () ->
          Atomic.get landed);
      Domain.join producer;
      checki "depth" 3 (Spsc.length q));
  let q = spsc ~capacity:2 in
  within q (fun () ->
      push_blocking q 0;
      push_blocking q 1;
      let producer =
        Domain.spawn (fun () -> Spsc.push q ~drop_when_full:false [| 2 |])
      in
      Unix.sleepf 0.05;
      Spsc.abort q;
      checkb "abort releases the parked producer with Dropped" true
        (Domain.join producer = Spsc.Dropped))

(* Two domains, random batch counts, both sides pausing at
   random so each parks on the other: every batch arrives exactly once,
   in FIFO order, at every capacity. *)
let test_spsc_two_domain_stress () =
  List.iter
    (fun capacity ->
      for run = 1 to 3 do
        let rng = Rng.create ((capacity * 100) + run) in
        let n = Rng.int_in rng 0 3000 in
        let pause () = if Rng.int rng 64 = 0 then 0.0002 else 0. in
        let producer_pauses = Array.init n (fun _ -> pause ()) in
        let consumer_pauses = Array.init n (fun _ -> pause ()) in
        let q = spsc ~capacity in
        within q (fun () ->
            let consumer =
              Domain.spawn (fun () ->
                  let rec go k =
                    match Spsc.pop q with
                    | None -> Ok k
                    | Some b ->
                        if k >= n || b.(0) <> k then
                          Error (Printf.sprintf "batch %d: got %d" k b.(0))
                        else begin
                          if consumer_pauses.(k) > 0. then
                            Unix.sleepf consumer_pauses.(k);
                          go (k + 1)
                        end
                  in
                  go 0)
            in
            for k = 0 to n - 1 do
              if producer_pauses.(k) > 0. then Unix.sleepf producer_pauses.(k);
              push_blocking q k
            done;
            Spsc.close q;
            match Domain.join consumer with
            | Ok k when k = n -> ()
            | Ok k ->
                Alcotest.failf "capacity %d run %d: %d of %d batches" capacity
                  run k n
            | Error e -> Alcotest.failf "capacity %d run %d: %s" capacity run e)
      done)
    [ 1; 2; 3; 5; 64 ]

(* --- Pool.run_job --------------------------------------------------------- *)

let test_run_job_every_worker_once () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let hits = Array.make jobs 0 in
          Pool.run_job p (fun ~worker ->
              hits.(worker) <- hits.(worker) + 1);
          Array.iteri
            (fun w h -> checki (Printf.sprintf "jobs=%d slot %d" jobs w) 1 h)
            hits;
          (* the pool is reusable for a second job *)
          Pool.run_job p (fun ~worker ->
              hits.(worker) <- hits.(worker) + 10);
          Array.iteri
            (fun w h -> checki (Printf.sprintf "second job slot %d" w) 11 h)
            hits))
    [ 1; 2; 4 ]

exception Job_boom

let test_run_job_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun p ->
      checkb "raises" true
        (try
           Pool.run_job p (fun ~worker -> if worker = 1 then raise Job_boom);
           false
         with Job_boom -> true);
      (* the pool survives a failed job *)
      let ok = ref false in
      Pool.run_job p (fun ~worker -> if worker = 0 then ok := true);
      checkb "pool alive after failure" true !ok)

(* --- differential: interleaved engine = isolated replays ----------------- *)

let norm_verdicts (rp : Recorded.replay) ~with_origins =
  if with_origins then
    List.map
      (fun (ov : Recorded.origin_verdict) ->
        (ov.Recorded.ov_kind, ov.Recorded.ov_flagged, ov.Recorded.ov_origins))
      rp.Recorded.origins
  else
    List.map
      (fun (v : Recorded.verdict) -> (v.Recorded.kind, v.Recorded.flagged, []))
      rp.Recorded.verdicts

let engine_verdicts (ts : Engine.tenant_snapshot) ~with_origins =
  List.map
    (fun (v : Engine.verdict) ->
      ( v.Engine.v_kind,
        v.Engine.v_flagged,
        if with_origins then v.Engine.v_origins else [] ))
    ts.Engine.ts_verdicts

let stats_equal (a : Tracker.stats) (b : Tracker.stats) =
  a.Tracker.taint_ops = b.Tracker.taint_ops
  && a.Tracker.untaint_ops = b.Tracker.untaint_ops
  && a.Tracker.lookups = b.Tracker.lookups
  && a.Tracker.tainted_loads = b.Tracker.tainted_loads
  && a.Tracker.max_tainted_bytes = b.Tracker.max_tainted_bytes
  && a.Tracker.max_ranges = b.Tracker.max_ranges
  && a.Tracker.events = b.Tracker.events

let run_differential ~shards ~with_origins =
  let recs = Lazy.force recordings in
  let policy = Policy.default in
  let isolated =
    List.map (fun r -> Recorded.replay ~policy ~with_origins r) recs
  in
  Engine.with_engine ~shards ~policy ~with_origins ~queue_capacity:2 ~batch:16
    (fun eng ->
      let sources =
        List.mapi (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r) recs
      in
      Ingest.run eng sources;
      List.iteri
        (fun i (r, rp) ->
          let pid = Ingest.tenant_pid i in
          match Engine.snapshot_tenant eng ~pid with
          | None -> Alcotest.failf "tenant %d missing" pid
          | Some ts ->
              let label which =
                Printf.sprintf "%s shards=%d tenant=%s" which shards
                  r.Recorded.name
              in
              checks (label "name") r.Recorded.name ts.Engine.ts_name;
              checkb (label "verdicts") true
                (engine_verdicts ts ~with_origins
                = norm_verdicts rp ~with_origins);
              checkb (label "stats") true
                (stats_equal ts.Engine.ts_stats rp.Recorded.stats))
        (List.combine recs isolated);
      (* all shards between 0 and shards-1 got the round-robin tenants *)
      let st = Engine.stats eng in
      checki
        (Printf.sprintf "tenant total shards=%d" shards)
        (List.length recs) st.Engine.st_tenants;
      checki
        (Printf.sprintf "dropped shards=%d" shards)
        0 st.Engine.st_dropped)

let test_differential_shards_1 () = run_differential ~shards:1 ~with_origins:true
let test_differential_shards_2 () = run_differential ~shards:2 ~with_origins:true
let test_differential_shards_4 () = run_differential ~shards:4 ~with_origins:true

let test_differential_no_origins () =
  run_differential ~shards:2 ~with_origins:false

(* Tiny queues + blocking backpressure: nothing may be lost and the
   interleaved result still matches — the producer just waits. *)
let test_blocking_backpressure_lossless () =
  let recs = Lazy.force recordings in
  let policy = Policy.default in
  Engine.with_engine ~shards:2 ~policy ~queue_capacity:1 ~batch:4 (fun eng ->
      let sources =
        List.mapi (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r) recs
      in
      Ingest.run eng sources;
      let st = Engine.stats eng in
      checki "no drops under blocking policy" 0 st.Engine.st_dropped;
      let total_items =
        List.fold_left
          (fun acc (r : Recorded.t) ->
            acc + Pift_trace.Trace.length r.Recorded.trace
            + Array.length r.Recorded.markers)
          0 recs
      in
      checki "every item processed" total_items st.Engine.st_items)

(* Dropping policy: items are either processed or counted dropped —
   the split is timing-dependent, the sum is not.  The run must
   terminate (a wedged producer would hang the test). *)
let test_drop_policy_accounting () =
  let recs = Lazy.force recordings in
  Engine.with_engine ~shards:2 ~policy:Policy.default ~queue_capacity:1
    ~batch:2 ~drop_when_full:true (fun eng ->
      let sources =
        List.mapi (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r) recs
      in
      Ingest.run eng sources;
      let st = Engine.stats eng in
      let total_items =
        List.fold_left
          (fun acc (r : Recorded.t) ->
            acc + Pift_trace.Trace.length r.Recorded.trace
            + Array.length r.Recorded.markers)
          0 recs
      in
      checki "processed + dropped = streamed" total_items
        (st.Engine.st_items + st.Engine.st_dropped))

(* --- column batches ---------------------------------------------------------- *)

(* Random multi-tenant item streams for the column-path property: up to
   three tenants, each with a forked child pid in its pid block, every
   access kind over a small adversarial address space (so taint
   interacts), both non-event kinds, and runs of events sharing one seq
   with markers between them ([Engine.item] markers carry no seq of
   their own). *)
let gen_engine_stream rng =
  let tenants = Rng.int_in rng 1 3 in
  let pids =
    Array.init (2 * tenants) (fun i -> Ingest.tenant_pid (i / 2) + (i mod 2))
  in
  let ks = Array.make (Array.length pids) 0 in
  let seq = ref 0 in
  List.init (Rng.int rng 160) (fun _ ->
      let p = Rng.int rng (Array.length pids) in
      let pid = pids.(p) in
      let range () = Prop.gen_range rng in
      match Rng.int rng 20 with
      | 0 | 1 ->
          let kind = Printf.sprintf "K%d" (Rng.int rng 3) in
          Engine.I_source { pid; kind; range = range () }
      | 2 | 3 ->
          let ranges = List.init (Rng.int_in rng 1 2) (fun _ -> range ()) in
          Engine.I_sink { pid; kind = "S"; ranges }
      | n ->
          seq := !seq + Rng.int rng 2;
          ks.(p) <- ks.(p) + Rng.int_in rng 1 6;
          let access =
            match n mod 3 with
            | 0 -> Pift_trace.Event.Load (range ())
            | 1 -> Pift_trace.Event.Store (range ())
            | _ -> Pift_trace.Event.Other
          in
          Engine.I_event
            {
              Pift_trace.Event.seq = !seq;
              k = ks.(p);
              pid;
              access;
            })

let engine_item_to_string = function
  | Engine.I_event e -> (
      let open Pift_trace.Event in
      match e.access with
      | Load r -> Printf.sprintf "L%d@%d:%s" e.pid e.k (Range.to_string r)
      | Store r -> Printf.sprintf "S%d@%d:%s" e.pid e.k (Range.to_string r)
      | Other -> Printf.sprintf "O%d@%d" e.pid e.k)
  | Engine.I_source { pid; kind; range } ->
      Printf.sprintf "src%d:%s:%s" pid kind (Range.to_string range)
  | Engine.I_sink { pid; ranges; _ } ->
      Printf.sprintf "snk%d:%s" pid
        (String.concat "," (List.map Range.to_string ranges))

let stream_of_list items : Engine.stream =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | it :: tl ->
        rest := tl;
        Some it

(* The oracle: each pid's items fed in order to its own directly driven
   tracker, as a tenant would see them. *)
type direct = {
  d_tracker : Tracker.t;
  mutable d_verdicts_rev : Engine.verdict list;
}

let direct_replay items =
  let tenants = Hashtbl.create 8 in
  let get pid =
    match Hashtbl.find_opt tenants pid with
    | Some d -> d
    | None ->
        let d =
          {
            d_tracker =
              Tracker.create ~policy:Policy.default ~store:(Store.create ())
                ~prov:(Provenance.create ())
                ();
            d_verdicts_rev = [];
          }
        in
        Hashtbl.add tenants pid d;
        d
  in
  List.iter
    (function
      | Engine.I_event e ->
          Tracker.observe (get e.Pift_trace.Event.pid).d_tracker e
      | Engine.I_source { pid; kind; range } ->
          Tracker.taint_source ~kind (get pid).d_tracker ~pid range
      | Engine.I_sink { pid; kind; ranges } ->
          let d = get pid in
          let v =
            {
              Engine.v_kind = kind;
              v_flagged =
                List.exists
                  (fun r -> Tracker.is_tainted d.d_tracker ~pid r)
                  ranges;
              v_origins =
                List.sort_uniq String.compare
                  (List.concat_map
                     (fun r -> Tracker.origins_of d.d_tracker ~pid r)
                     ranges);
            }
          in
          d.d_verdicts_rev <- v :: d.d_verdicts_rev)
    items;
  tenants

let column_configs =
  List.concat_map
    (fun batch ->
      List.concat_map
        (fun queue_capacity ->
          List.map (fun shards -> (batch, queue_capacity, shards)) [ 1; 2; 4 ])
        [ 1; 64 ])
    [ 1; 2; 3; 128 ]

(* First failing check of [checks], in order. *)
let first_error checks =
  List.fold_left
    (fun acc check -> match acc with Error _ -> acc | Ok () -> check ())
    (Ok ()) checks

let tenant_matches where (ts : Engine.tenant_snapshot)
    (tp : Engine.tenant_persisted) d () =
  let tr = d.d_tracker in
  let bad what = Error (where (Printf.sprintf "pid %d %s" ts.Engine.ts_pid what)) in
  if ts.Engine.ts_verdicts <> List.rev d.d_verdicts_rev then
    bad "verdicts/origins"
  else if ts.Engine.ts_stats <> Tracker.stats tr then bad "stats"
  else if ts.Engine.ts_tainted_bytes <> Tracker.current_tainted_bytes tr then
    bad "live bytes"
  else if ts.Engine.ts_ranges <> Tracker.current_ranges tr then bad "ranges"
  else if ts.Engine.ts_dropped <> 0 then bad "dropped"
  else if tp.Engine.tp_state <> Tracker.persist tr then
    bad "persisted tracker state (windows, last seq, origin sets)"
  else Ok ()

let column_path_matches items =
  let want = direct_replay items in
  let want_pids =
    List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) want [])
  in
  let check (batch, queue_capacity, shards) () =
    let where what =
      Printf.sprintf "batch %d queue %d shards %d: %s" batch queue_capacity
        shards what
    in
    Engine.with_engine ~shards ~batch ~queue_capacity ~with_origins:true
      (fun eng ->
        Engine.run eng (stream_of_list items);
        if Engine.tenants eng <> want_pids then
          Error (where "resident tenants differ")
        else
          first_error
            (List.map
               (fun pid ->
                 tenant_matches where
                   (Option.get (Engine.snapshot_tenant eng ~pid))
                   (Option.get (Engine.persist_tenant eng ~pid))
                   (Hashtbl.find want pid))
               want_pids))
  in
  first_error (List.map check column_configs)

let test_column_path_differential () =
  Prop.check_gen ~name:"column batches = direct tracker per tenant" ~count:12
    ~gen:gen_engine_stream ~shrink:Prop.shrink_candidates
    ~to_string:(fun items ->
      String.concat " " (List.map engine_item_to_string items))
    column_path_matches

(* Allocation budgets.  [Gc.minor_words] counts the calling domain's
   allocation alone, and [Engine.run]'s producer is pool slot 0, which
   runs on the caller's domain. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Over a stream that allocates nothing, twice the items may cost the
   producer no more than a constant more: it allocates nothing per item
   and nothing per batch.  Up to [queue_capacity + 2] batches may still
   be made in either run (how many the warm-up left depends on timing),
   which the slack covers; one word per item would be 40 000. *)
let test_producer_allocates_nothing_per_item () =
  let pid = Ingest.tenant_pid 0 in
  let n = 40_000 in
  let items =
    Array.init (2 * n) (fun i ->
        let r = Range.of_len (64 * (i mod 97)) 8 in
        Some
          (Engine.I_event
             {
               Pift_trace.Event.seq = i;
               k = i;
               pid;
               access =
                 (match i mod 3 with
                 | 0 -> Pift_trace.Event.Load r
                 | 1 -> Pift_trace.Event.Store r
                 | _ -> Pift_trace.Event.Other);
             }))
  in
  let pos = ref 0 and stop = ref 0 in
  let stream () =
    if !pos >= !stop then None
    else begin
      let it = items.(!pos) in
      incr pos;
      it
    end
  in
  Engine.with_engine ~shards:1 ~batch:16 ~queue_capacity:2 (fun eng ->
      let run count =
        pos := 0;
        stop := count;
        minor_words_of (fun () -> Engine.run eng stream)
      in
      (* Warm-up: creates the tenant and the first batches. *)
      ignore (run n);
      let once = run n in
      let twice = run (2 * n) in
      checkb
        (Printf.sprintf "producer: %.0f minor words for %d items, %.0f for %d"
           once n twice (2 * n))
        true
        (twice -. once <= 1024.);
      checki "every item processed" (4 * n) (Engine.stats eng).Engine.st_items)

(* Decode plus merge — everything the producer does per item before the
   engine copies it into a row — over a binary trace of the shared
   recordings.  The first pull (opening reads of every head) is left
   out; the rest is per item. *)
let test_merge_alloc_budget () =
  let recs = Lazy.force recordings in
  let paths =
    List.map
      (fun r ->
        let path = Tmp_file.path "pift_alloc" ".pift" in
        Trace_io.save ~format:Trace_io.Binary r path;
        path)
      recs
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () ->
      let sources =
        List.mapi (fun i path -> Ingest.of_file ~pid:(Ingest.tenant_pid i) path) paths
      in
      Fun.protect
        ~finally:(fun () -> List.iter Ingest.close sources)
        (fun () ->
          let next = Ingest.merge sources in
          ignore (next ());
          let items = ref 0 in
          let words =
            minor_words_of (fun () ->
                while next () <> None do
                  incr items
                done)
          in
          let per_item = words /. float_of_int !items in
          checkb
            (Printf.sprintf "%.2f minor words per item over %d items (budget 24)"
               per_item !items)
            true
            (!items > 1000 && per_item <= 24.)))

(* The fill path's target (ROADMAP item 1): decoding PIFTBIN1 straight
   into the batch rows, the producer allocates at most 2 minor words per
   item over a whole [Ingest.run] — setup, markers and batches included.
   The per-item path allocates ~19.7.  perfbench's traced leg, and so
   its CI allocation gate, times that per-item path, so the target for
   the path [pift serve] takes lives here. *)
let test_fill_alloc_budget () =
  let n = 120_000 in
  let trace = Pift_trace.Trace.create () in
  for i = 0 to n - 1 do
    let r = Range.of_len (64 * (i mod 1031)) (1 + (i mod 8)) in
    Per_event.add trace
      {
        Pift_trace.Event.seq = i + 1;
        k = i + 1;
        pid = 1 + (if i mod 500 = 7 then 1 else 0);
        access =
          (match i mod 3 with
          | 0 -> Pift_trace.Event.Load r
          | 1 -> Pift_trace.Event.Store r
          | _ -> Pift_trace.Event.Other);
      }
  done;
  let r =
    {
      Recorded.name = "alloc";
      trace;
      markers =
        Array.init 40 (fun i ->
            let seq = 1 + (i * (n / 40)) in
            if i mod 2 = 0 then
              (seq, Recorded.Source { kind = "K"; range = Range.of_len 64 8 })
            else (seq, Recorded.Sink { kind = "K"; ranges = [ Range.of_len 64 8 ] }));
      pid = 1;
      bytecodes = 0;
      frag_hits = 0;
      frag_misses = 0;
    }
  in
  let path = Tmp_file.path "pift_fill_alloc" ".pift" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary r path;
      Engine.with_engine ~shards:1 (fun eng ->
          let s = Ingest.of_file ~pid:(Ingest.tenant_pid 0) path in
          let words = minor_words_of (fun () -> Ingest.run eng [ s ]) in
          let items = (Engine.stats eng).Engine.st_items in
          let per_item = words /. float_of_int items in
          checki "every item served" (n + 40) items;
          checkb
            (Printf.sprintf "%.3f minor words per item over %d items (budget 2)"
               per_item items)
            true (per_item <= 2.)))

(* A drained batch goes back to its shard's free list, so it outlives
   the run: its side slots must not keep the run's items reachable.
   [Engine.run] carries a non-event item as a [side] value that shares
   the item's range, so the range is what is watched. *)
let test_drained_batches_release_items () =
  let pid = Ingest.tenant_pid 0 in
  let weak = Weak.create 1 in
  Engine.with_engine ~shards:1 ~batch:4 ~queue_capacity:1 (fun eng ->
      (let range = Range.of_len (Sys.opaque_identity 64) 8 in
       Weak.set weak 0 (Some range);
       Engine.run eng
         (stream_of_list
            [
              Engine.I_sink { pid; kind = "S"; ranges = [ range ] };
              Engine.I_sink { pid; kind = "S2"; ranges = [ range ] };
            ]));
      Gc.full_major ();
      checkb "side item collected after the run" false (Weak.check weak 0);
      checki "both items processed" 2 (Engine.stats eng).Engine.st_items)

(* Drop mode charges every lost item to its tenant: the per-tenant
   counts sum to the engine's total, and a tenant that lost nothing
   matches its isolated replay exactly.  With two shards, batches mix
   tenants.  With five, every tenant has a shard to itself, and the
   last one — a two-item source-then-sink recording, a single batch
   pushed into an empty queue — never drops. *)
let tiny_recording =
  {
    Recorded.name = "tiny";
    trace = Pift_trace.Trace.create ();
    markers =
      [|
        (0, Recorded.Source { kind = "IMEI"; range = Range.of_len 0 8 });
        (0, Recorded.Sink { kind = "net"; ranges = [ Range.of_len 4 2 ] });
      |];
    pid = 1;
    bytecodes = 0;
    frag_hits = 0;
    frag_misses = 0;
  }

(* An event pid outside [orig, orig + 2^20) would be remapped into the
   next or previous tenant's pid block.  Tenant a's pid 2^20 + 1 lands
   exactly on tenant b's main pid, where its store would copy b's
   source into b's sink range and flip b's verdict; ingest refuses it
   before it reaches the engine, naming the source, item and pid. *)
let test_pid_outside_block () =
  let ev seq pid access = { Pift_trace.Event.seq; k = seq; pid; access } in
  let recording name events markers =
    let trace = Pift_trace.Trace.create () in
    List.iter (Per_event.add trace) events;
    {
      Recorded.name;
      trace;
      markers;
      pid = 1;
      bytecodes = 0;
      frag_hits = 0;
      frag_misses = 0;
    }
  in
  let overflow = 1 + (1 lsl 20) in
  let a =
    recording "a"
      [
        ev 5 overflow (Pift_trace.Event.Load (Range.of_len 4096 4));
        ev 6 overflow (Pift_trace.Event.Store (Range.of_len 8192 4));
      ]
      [||]
  in
  let b =
    recording "b"
      [ ev 2 1 Pift_trace.Event.Other ]
      [|
        (1, Recorded.Source { kind = "imei"; range = Range.of_len 4096 4 });
        (20, Recorded.Sink { kind = "net"; ranges = [ Range.of_len 8192 4 ] });
      |]
  in
  let refusal name pid =
    Failure
      (Printf.sprintf
         "Ingest: %s: item 1: event pid %d is outside the tenant's pid block \
          [1, 1048577)"
         name pid)
  in
  Engine.with_engine ~shards:1 (fun eng ->
      Alcotest.check_raises "overflow refused" (refusal "a" overflow)
        (fun () ->
          Ingest.run eng
            (List.mapi
               (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r)
               [ a; b ]));
      match Engine.snapshot_tenant eng ~pid:(Ingest.tenant_pid 1) with
      | None -> ()
      | Some ts ->
          checki "no verdict reached tenant b" 0
            (List.length ts.Engine.ts_verdicts));
  let first_item r =
    Ingest.merge [ Ingest.of_recorded ~pid:(Ingest.tenant_pid 0) r ] ()
  in
  Alcotest.check_raises "negative offset refused" (refusal "neg" 0) (fun () ->
      ignore (first_item (recording "neg" [ ev 1 0 Pift_trace.Event.Other ] [||])));
  match
    first_item
      (recording "last" [ ev 1 (1 lsl 20) Pift_trace.Event.Other ] [||])
  with
  | Some (Engine.I_event e) ->
      checki "the block's last pid is accepted"
        (Ingest.tenant_pid 1 - 1) e.Pift_trace.Event.pid
  | _ -> Alcotest.fail "expected the event"

(* Lost events and sinks show as missing stats events and verdicts; a
   lost source shows nowhere, hence a range rather than an equality. *)
let check_tenant_drops policy r (ts : Engine.tenant_snapshot) =
  let sources, sinks =
    Array.fold_left
      (fun (so, si) (_, m) ->
        match m with
        | Recorded.Source _ -> (so + 1, si)
        | Recorded.Sink _ -> (so, si + 1))
      (0, 0) r.Recorded.markers
  in
  let seen_lost =
    Pift_trace.Trace.length r.Recorded.trace - ts.Engine.ts_stats.Tracker.events
    + sinks - List.length ts.Engine.ts_verdicts
  in
  checkb
    (Printf.sprintf "%s: %d dropped, %d events/sinks missing, %d sources"
       r.Recorded.name ts.Engine.ts_dropped seen_lost sources)
    true
    (seen_lost <= ts.Engine.ts_dropped
    && ts.Engine.ts_dropped <= seen_lost + sources);
  if ts.Engine.ts_dropped = 0 then begin
    let rp = Recorded.replay ~policy ~with_origins:true r in
    checkb (r.Recorded.name ^ " lost nothing: verdicts") true
      (engine_verdicts ts ~with_origins:true
      = norm_verdicts rp ~with_origins:true);
    checkb (r.Recorded.name ^ " lost nothing: stats") true
      (stats_equal ts.Engine.ts_stats rp.Recorded.stats)
  end

let test_drop_per_tenant () =
  let recs = Lazy.force recordings @ [ tiny_recording ] in
  let policy = Policy.default in
  List.iter
    (fun shards ->
      Engine.with_engine ~shards ~policy ~with_origins:true ~queue_capacity:1
        ~batch:2 ~drop_when_full:true (fun eng ->
          let sources =
            List.mapi
              (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r)
              recs
          in
          Ingest.run eng sources;
          let snaps =
            List.map
              (fun (s : Ingest.source) ->
                Option.get (Engine.snapshot_tenant eng ~pid:s.Ingest.src_pid))
              sources
          in
          if shards = 5 then
            checki "the tiny tenant lost nothing" 0
              (List.nth snaps 4).Engine.ts_dropped;
          checki "per-tenant drops sum to the total"
            (Engine.stats eng).Engine.st_dropped
            (List.fold_left (fun acc ts -> acc + ts.Engine.ts_dropped) 0 snaps);
          List.iter2 (check_tenant_drops policy) recs snaps))
    [ 2; 5 ]

(* --- tenant lifecycle ----------------------------------------------------- *)

(* [register_tenant], the one out-of-band call: it pre-creates a clean
   tenant under its name, renames a resident one, and an in-band stream
   then lands on that tenant. *)
let test_admin_out_of_band () =
  Engine.with_engine ~shards:2 ~with_origins:true (fun eng ->
      let pid = Ingest.tenant_pid 3 in
      Engine.register_tenant eng ~pid ~name:"manual" ();
      let ts = Option.get (Engine.snapshot_tenant eng ~pid) in
      checks "name" "manual" ts.Engine.ts_name;
      checki "no logged verdicts" 0 (List.length ts.Engine.ts_verdicts);
      checki "no live bytes" 0 ts.Engine.ts_tainted_bytes;
      checkb "resident" true (Engine.tenants eng = [ pid ]);
      Engine.run eng
        (stream_of_list
           [
             Engine.I_source { pid; kind = "IMEI"; range = Range.of_len 100 16 };
             Engine.I_sink { pid; kind = "net"; ranges = [ Range.of_len 104 4 ] };
           ]);
      Engine.register_tenant eng ~pid ~name:"renamed" ();
      let ts = Option.get (Engine.snapshot_tenant eng ~pid) in
      checks "renamed" "renamed" ts.Engine.ts_name;
      checkb "the stream landed on the registered tenant" true
        (ts.Engine.ts_verdicts
        = [ { Engine.v_kind = "net"; v_flagged = true; v_origins = [ "IMEI" ] } ]);
      checki "live bytes" 16 ts.Engine.ts_tainted_bytes)

(* [shards], [queue_capacity] and [batch] are validated up front, before
   the pool is spawned — not later inside [run]. *)
let test_create_validates_config () =
  List.iter
    (fun (what, mk) ->
      checkb (what ^ " rejected") true
        (match mk () with
        | eng ->
            Engine.shutdown eng;
            false
        | exception Invalid_argument _ -> true))
    [
      ("queue_capacity 0", fun () -> Engine.create ~queue_capacity:0 ());
      ("batch 0", fun () -> Engine.create ~batch:0 ());
      ("shards 0", fun () -> Engine.create ~shards:0 ());
    ]

(* Routing: [ts_shard] is the shard the engine routed the pid to; it
   must equal the full formula with both [mod]s — the engine skips the
   arithmetic for one shard and replaces the outer [mod] with a sign
   test.  Pids cover block boundaries on both sides of zero, blocks
   past [shards * pid_range], the extremes, and random values. *)
let test_routing_formula () =
  let rng = Rng.create 1919 in
  let pid_range = Engine.pid_range in
  for shards = 1 to 7 do
    let expected pid = ((pid / pid_range mod shards) + shards) mod shards in
    let boundaries =
      List.concat_map
        (fun b ->
          List.map (fun d -> (b * pid_range) + d) [ -1; 0; 1; pid_range - 1 ])
        [ -(2 * shards) - 1; -shards; -1; 0; 1; shards; (3 * shards) + 2 ]
    in
    let span = 20 * shards * pid_range in
    let randoms =
      List.init 40 (fun _ -> Rng.int_in rng (-span) span)
      @ List.init 10 (fun _ -> Rng.int rng max_int - (max_int / 2))
    in
    Engine.with_engine ~shards (fun eng ->
        List.iter
          (fun pid ->
            Engine.register_tenant eng ~pid ();
            match Engine.snapshot_tenant eng ~pid with
            | None -> Alcotest.failf "pid %d not resident" pid
            | Some ts ->
                if ts.Engine.ts_shard <> expected pid then
                  Alcotest.failf "shards %d, pid %d: shard %d, formula %d"
                    shards pid ts.Engine.ts_shard (expected pid))
          ((min_int :: max_int :: boundaries) @ randoms))
  done

(* --- tenant lookup: the shard's table behind a last-tenant cache ---------- *)

(* The consumer finds a row's tenant through its shard's last-tenant
   cache, falling back to the table on a switch.  130 tenants over the
   four recordings, each served a window at a time, must still match
   their isolated replays, at one shard and at several.  (The "block
   index" test names predate the cache; they keep naming the same
   checks.) *)
let test_block_index_130_tenants () =
  let recs = Array.of_list (Lazy.force recordings) in
  let policy = Policy.default in
  let isolated =
    Array.map (fun r -> Recorded.replay ~policy ~with_origins:true r) recs
  in
  let tenants = 130 in
  List.iter
    (fun shards ->
      Engine.with_engine ~shards ~policy ~with_origins:true ~queue_capacity:4
        ~batch:32 (fun eng ->
          Ingest.run eng
            (List.init tenants (fun i ->
                 Ingest.of_recorded ~pid:(Ingest.tenant_pid i)
                   recs.(i mod Array.length recs)));
          checki
            (Printf.sprintf "shards %d: tenants" shards)
            tenants (Engine.stats eng).Engine.st_tenants;
          for i = 0 to tenants - 1 do
            let rp = isolated.(i mod Array.length recs) in
            let ts =
              Option.get (Engine.snapshot_tenant eng ~pid:(Ingest.tenant_pid i))
            in
            let label what =
              Printf.sprintf "shards %d tenant %d %s" shards i what
            in
            checkb (label "verdicts") true
              (engine_verdicts ts ~with_origins:true
              = norm_verdicts rp ~with_origins:true);
            checkb (label "stats") true
              (stats_equal ts.Engine.ts_stats rp.Recorded.stats)
          done))
    [ 1; 3 ]

let event ~seq ~k pid access =
  Engine.I_event { Pift_trace.Event.seq; k; pid; access }

let check_column_path what items =
  match column_path_matches items with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

(* A child pid in the block of a hot main pid is a tenant of its own:
   the main pid's window must not serve the child's stores, whichever
   of the two the cache held first, and the main pid keeps being found
   after the child's lookups.  Also with main pid -1 and child 0, which
   truncating division puts in one block. *)
let test_block_index_child_pid () =
  let source pid =
    Engine.I_source { pid; kind = "K"; range = Range.make 0 15 }
  in
  let sink ?(kind = "S") ?(range = Range.make 100 103) pid =
    Engine.I_sink { pid; kind; ranges = [ range ] }
  in
  (* ks rise per pid whichever of main and child comes first *)
  let scenario ~main ~child ~other first =
    let second = if first = main then child else main in
    let store lo = Pift_trace.Event.Store (Range.make lo (lo + 3)) in
    let load = Pift_trace.Event.Load (Range.byte 4) in
    [
      event ~seq:1 ~k:1 first Pift_trace.Event.Other;
      source main;
      event ~seq:2 ~k:1 other Pift_trace.Event.Other;
      event ~seq:3 ~k:2 main load;
      event ~seq:4 ~k:2 child (store 100);
      sink child;
      event ~seq:5 ~k:3 main (store 100);
      sink main;
      event ~seq:6 ~k:4 second load;
      event ~seq:7 ~k:5 child (store 200);
      sink ~kind:"S2" ~range:(Range.make 200 203) child;
      sink main;
    ]
  in
  List.iter
    (fun (main, child, other) ->
      List.iter
        (fun first ->
          let items = scenario ~main ~child ~other first in
          check_column_path (Printf.sprintf "pid %d first" first) items;
          Engine.with_engine ~with_origins:true (fun eng ->
              Engine.run eng (stream_of_list items);
              checkb "main and child are distinct tenants" true
                (Engine.tenants eng = List.sort compare [ main; child; other ]);
              let flagged pid =
                List.map
                  (fun v -> v.Engine.v_flagged)
                  (Option.get (Engine.snapshot_tenant eng ~pid))
                    .Engine.ts_verdicts
              in
              checkb "main's window did not taint the child" true
                (flagged child = [ false; false ]);
              checkb "main tainted its own store" true
                (flagged main = [ true; true ])))
        [ main; child ])
    [
      (Ingest.tenant_pid 0, Ingest.tenant_pid 0 + 1, Ingest.tenant_pid 1);
      (-1, 0, Engine.pid_range);
    ]

(* A snapshot taken at one shard count restores into another, and the
   restored tenants are found through the new engine's lookup: the rest
   of the stream then lands on the restored state. *)
let test_block_index_restore_reshard () =
  let rng = Rng.create 2121 in
  let tenants = 40 in
  let ks = Array.make (2 * tenants) 0 in
  let items =
    List.init 3000 (fun seq ->
        let p = Rng.int rng (2 * tenants) in
        let pid = Ingest.tenant_pid (p / 2) + (p mod 2) in
        let range = Prop.gen_range rng in
        match Rng.int rng 12 with
        | 0 -> Engine.I_source { pid; kind = "K"; range }
        | 1 -> Engine.I_sink { pid; kind = "S"; ranges = [ range ] }
        | n ->
            ks.(p) <- ks.(p) + 1;
            event ~seq ~k:ks.(p) pid
              (match n mod 3 with
              | 0 -> Pift_trace.Event.Load range
              | 1 -> Pift_trace.Event.Store range
              | _ -> Pift_trace.Event.Other))
  in
  let first = List.filteri (fun i _ -> i < 1500) items in
  let rest = List.filteri (fun i _ -> i >= 1500) items in
  let want = direct_replay items in
  let persisted =
    Engine.with_engine ~shards:4 ~with_origins:true (fun eng ->
        Engine.run eng (stream_of_list first);
        Engine.persist_tenants eng)
  in
  List.iter
    (fun shards ->
      Engine.with_engine ~shards ~with_origins:true (fun eng ->
          List.iter (Engine.restore_tenant eng) persisted;
          Engine.run eng (stream_of_list rest);
          let where what = Printf.sprintf "4 -> %d shards: %s" shards what in
          let pids = Engine.tenants eng in
          checki (where "tenants") (Hashtbl.length want) (List.length pids);
          match
            first_error
              (List.map
                 (fun pid ->
                   tenant_matches where
                     (Option.get (Engine.snapshot_tenant eng ~pid))
                     (Option.get (Engine.persist_tenant eng ~pid))
                     (Hashtbl.find want pid))
                 pids)
          with
          | Ok () -> ()
          | Error e -> Alcotest.fail e))
    [ 1; 3 ]

(* --- release_pid through the stack ---------------------------------------- *)

let test_store_release_pid () =
  let s = Store.create () in
  s.Store.add ~pid:1 (Range.of_len 0 10);
  s.Store.add ~pid:2 (Range.of_len 50 6);
  checki "bytes before" 16 (s.Store.tainted_bytes ());
  s.Store.release_pid ~pid:1;
  checki "bytes after" 6 (s.Store.tainted_bytes ());
  checki "ranges after" 1 (s.Store.range_count ());
  checkb "pid 1 empty" false (s.Store.overlaps ~pid:1 (Range.of_len 0 10));
  checkb "pid 2 intact" true (s.Store.overlaps ~pid:2 (Range.of_len 52 1));
  (* releasing an unknown pid is a no-op *)
  s.Store.release_pid ~pid:99;
  checki "no-op release" 6 (s.Store.tainted_bytes ())

let test_storage_release_pid () =
  let st = Storage.create ~entries:8 () in
  Storage.insert st ~pid:1 (Range.of_len 0 4);
  Storage.insert st ~pid:2 (Range.of_len 100 4);
  let occ_before = Storage.occupancy st in
  Storage.release_pid st ~pid:1;
  checki "occupancy drops" (occ_before - 1) (Storage.occupancy st);
  checkb "pid 1 gone" false (Storage.lookup st ~pid:1 (Range.of_len 0 4));
  checkb "pid 2 intact" true
    (Storage.lookup st ~pid:2 (Range.of_len 100 4))

(* --- provenance per-pid index (satellite: no cross-pid scans) ------------- *)

let test_provenance_scans_stay_per_pid () =
  let p = Provenance.create () in
  (* 1000 cold pids, one label each *)
  for pid = 1 to 1000 do
    Provenance.taint_source p ~pid ~label:(Printf.sprintf "src%d" (pid mod 7))
      (Range.of_len (pid * 64) 16)
  done;
  let before = Provenance.probes p in
  (* scan-path ops on ONE pid must probe only that pid's label sets
     (1 label here), not all 1000 pids' *)
  Provenance.untaint_range p ~pid:500 (Range.of_len (500 * 64) 16);
  let after_untaint = Provenance.probes p in
  checkb
    (Printf.sprintf "untaint probes once, got %d" (after_untaint - before))
    true
    (after_untaint - before <= 1);
  ignore (Provenance.labels_of p ~pid:501 (Range.of_len (501 * 64) 4));
  let after_hit = Provenance.probes p in
  checkb
    (Printf.sprintf "hit_labels probes once, got %d" (after_hit - after_untaint))
    true
    (after_hit - after_untaint <= 1)

(* The sidecar only hears about the tracker's decisions: with 1000 cold
   pids resident, a clean load and an out-of-window store to a clean
   range reach it not at all, and a tainted load probes exactly that
   pid's labels once. *)
let test_provenance_probes_follow_decisions () =
  let p = Provenance.create () in
  let t = Tracker.create ~prov:p () in
  for pid = 1 to 1000 do
    Tracker.taint_source ~kind:(Printf.sprintf "src%d" (pid mod 7)) t ~pid
      (Range.of_len (pid * 64) 16)
  done;
  (* pid 500 carries a second label *)
  Tracker.taint_source ~kind:"extra" t ~pid:500
    (Range.of_len ((500 * 64) + 32) 8);
  let observe seq k access =
    Tracker.observe t
      { Pift_trace.Event.seq; k; pid = 500; access }
  in
  let before = Provenance.probes p in
  observe 1 1 (Pift_trace.Event.Load (Range.of_len 0 4));
  checki "clean load probes nothing" 0 (Provenance.probes p - before);
  observe 2 2 (Pift_trace.Event.Store (Range.of_len 8 4));
  checki "out-of-window store to a clean range probes nothing" 0
    (Provenance.probes p - before);
  observe 3 3 (Pift_trace.Event.Load (Range.of_len (500 * 64) 4));
  checki "tainted load probes the pid's labels" 2 (Provenance.probes p - before)

(* --- ingest merge order ---------------------------------------------------- *)

(* Synthetic sources for the merge-order properties.  Seqs cluster
   within a seq or two of the window boundaries up to [4 * window], so
   ties on the seq and on the window across sources are common, a
   source's seqs often cross a boundary and drop back across it, and a
   marker often reuses the seq of the event before it, as recorded
   markers do. *)
type synth_item = S_event of int | S_source of int | S_sink of int

let synth_item_to_string = function
  | S_event s -> Printf.sprintf "e%d" s
  | S_source s -> Printf.sprintf "src%d" s
  | S_sink s -> Printf.sprintf "snk%d" s

let window = 1 lsl Ingest.window_bits

let gen_synth_source rng =
  let len = if Rng.int rng 5 = 0 then 0 else Rng.int_in rng 1 20 in
  let draw () = (Rng.int rng 5 * window) + Rng.int_in rng (-2) 1 in
  let last = ref (draw ()) in
  List.init len (fun _ ->
      match Rng.int rng 6 with
      | 0 -> S_source !last
      | 1 -> S_sink !last
      | _ ->
          last := draw ();
          S_event !last)

let gen_synth_sources rng =
  List.init (Rng.int_in rng 0 200) (fun _ -> gen_synth_source rng)

let synth_sources_to_string specs =
  Printf.sprintf "%d sources: %s" (List.length specs)
    (String.concat " | "
       (List.map
          (fun items -> String.concat " " (List.map synth_item_to_string items))
          specs))

(* Item [j] of source [i]: its ranges name (i, j), so two distinct
   items never compare equal once remapped. *)
let synth_orig_pid = 7

let recorded_of_synth i j it : Recorded.item =
  let r = Range.of_len ((((i * 64) + j) * 32) + 4096) 8 in
  match it with
  | S_event seq ->
      Recorded.Item_event
        {
          Pift_trace.Event.seq;
          k = j;
          pid = synth_orig_pid;
          access = (if j mod 2 = 0 then Pift_trace.Event.Load r else Store r);
        }
  | S_source seq ->
      Recorded.Item_marker (seq, Recorded.Source { kind = "K"; range = r })
  | S_sink seq ->
      Recorded.Item_marker (seq, Recorded.Sink { kind = "K"; ranges = [ r ] })

(* One set of sources over [specs]; every [src_next] call appends the
   source's index to [log]. *)
let synth_sources specs log =
  List.mapi
    (fun i items ->
      let rd =
        Per_event.of_items
          {
            Trace_io.h_name = Printf.sprintf "synth%d" i;
            h_pid = synth_orig_pid;
            h_bytecodes = 0;
          }
          (List.mapi (recorded_of_synth i) items)
      in
      {
        Ingest.src_name = Printf.sprintf "synth%d" i;
        src_path = None;
        src_pid = Ingest.tenant_pid i;
        src_orig_pid = synth_orig_pid;
        src_reader = rd;
        src_next =
          (fun () ->
            log := i :: !log;
            Trace_io.read_item rd);
        src_emitted = 0;
      })
    specs

(* The oracle: a two-pass scan.  Each pull refills every live source
   without a head, in index order, then emits the head with the
   smallest (seq asr window_bits, index). *)
let scan_merge (srcs : Ingest.source array) =
  let n = Array.length srcs in
  let heads = Array.make n None in
  let live = Array.make n true in
  let key = function
    | Recorded.Item_event e -> e.Pift_trace.Event.seq asr Ingest.window_bits
    | Recorded.Item_marker (seq, _) -> seq asr Ingest.window_bits
  in
  fun () ->
    for i = 0 to n - 1 do
      if live.(i) && heads.(i) = None then
        match srcs.(i).Ingest.src_next () with
        | Some it -> heads.(i) <- Some it
        | None -> live.(i) <- false
    done;
    let best = ref (-1) and best_key = ref max_int in
    for i = 0 to n - 1 do
      match heads.(i) with
      | Some it when !best < 0 || key it < !best_key ->
          best := i;
          best_key := key it
      | _ -> ()
    done;
    if !best < 0 then None
    else begin
      let i = !best in
      let it = Option.get heads.(i) in
      heads.(i) <- None;
      srcs.(i).Ingest.src_emitted <- srcs.(i).Ingest.src_emitted + 1;
      Some (Ingest.to_engine_item srcs.(i) it)
    end

let cursors srcs = Array.map Ingest.cursor srcs

(* Run the oracle to the end; element [k] of the result holds every
   source's cursor after [k] pulls. *)
let scan_cursor_trace specs =
  let srcs = Array.of_list (synth_sources specs (ref [])) in
  let next = scan_merge srcs in
  let rec go acc =
    match next () with
    | Some _ -> go (cursors srcs :: acc)
    | None -> Array.of_list (List.rev acc)
  in
  go [ cursors srcs ]

(* After every pull: the same item (hence the same source — its pid is
   in the item), the same [src_next] calls made by that pull, in order,
   and the same cursor on every source. *)
let merge_matches_scan specs =
  let merge_log = ref [] and scan_log = ref [] in
  let merge_srcs = Array.of_list (synth_sources specs merge_log) in
  let scan_srcs = Array.of_list (synth_sources specs scan_log) in
  let merge = Ingest.merge (Array.to_list merge_srcs) in
  let scan = scan_merge scan_srcs in
  let rec pull k =
    merge_log := [];
    scan_log := [];
    let got = merge () and want = scan () in
    if got <> want then Error (Printf.sprintf "pull %d: emitted items differ" k)
    else if !merge_log <> !scan_log then
      Error
        (Printf.sprintf "pull %d: src_next calls [%s], scan made [%s]" k
           (String.concat " " (List.rev_map string_of_int !merge_log))
           (String.concat " " (List.rev_map string_of_int !scan_log)))
    else if cursors merge_srcs <> cursors scan_srcs then
      Error (Printf.sprintf "pull %d: cursors differ" k)
    else if got = None then Ok ()
    else pull (k + 1)
  in
  pull 1

(* Fixed shapes the random sizes rarely hit: one to three sources and
   around 128; sources whose seqs all tie, so the source index alone
   orders every pick; seqs on both sides of a window boundary (W - 1
   and W), in both orders; a source whose seqs drop back across a
   boundary while others wait in the higher window; no sources; and
   sources that are all empty. *)
let merge_boundary_cases =
  let rng = Rng.create 127 in
  let w = window in
  List.concat_map
    (fun n ->
      [
        List.init n (fun _ -> gen_synth_source rng);
        List.init n (fun i ->
            List.init (1 + (i mod 4)) (fun j ->
                match j with
                | 1 -> S_source 5
                | 3 -> S_sink 5
                | _ -> S_event 5));
      ])
    [ 1; 2; 3; 127; 128; 129 ]
  @ [
      [ [ S_event (w - 1); S_event w ]; [ S_event w; S_event (w - 1) ] ];
      [ [ S_event w; S_sink w ]; [ S_event (w - 1); S_source (w - 1) ] ];
      [
        [ S_event w; S_event (w - 1); S_source (w - 1); S_event w ];
        [ S_event w; S_event (2 * w) ];
        [ S_event (w + 1); S_event (w - 2); S_event 0 ];
      ];
      [
        [ S_event (2 * w); S_event (w - 1); S_event (3 * w); S_event 0 ];
        [ S_event (2 * w - 1); S_event (2 * w) ];
      ];
      [];
      [ []; []; [] ];
    ]

let test_merge_matches_scan () =
  List.iter
    (fun specs ->
      match merge_matches_scan specs with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%d sources: %s@.%s" (List.length specs) e
            (synth_sources_to_string specs))
    merge_boundary_cases;
  Prop.check_gen ~name:"window merge = two-pass scan" ~count:150
    ~gen:gen_synth_sources ~shrink:Prop.shrink_candidates
    ~to_string:synth_sources_to_string merge_matches_scan

(* Through [Ingest.run ~segment]: at each [on_idle] every source's
   cursor equals the scan's after that many items. *)
let test_run_segment_cursors () =
  Prop.check_gen ~name:"segmented run cursors = scan" ~count:25
    ~gen:(fun rng -> (Rng.int_in rng 1 50, gen_synth_sources rng))
    ~shrink:(fun (segment, specs) ->
      List.map (fun s -> (segment, s)) (Prop.shrink_candidates specs))
    ~to_string:(fun (segment, specs) ->
      Printf.sprintf "segment %d, %s" segment (synth_sources_to_string specs))
    (fun (segment, specs) ->
      let expected = scan_cursor_trace specs in
      let total = Array.length expected - 1 in
      let srcs = Array.of_list (synth_sources specs (ref [])) in
      let idles = ref 0 and mismatch = ref None in
      Engine.with_engine ~shards:2 (fun eng ->
          Ingest.run ~segment
            ~on_idle:(fun () ->
              incr idles;
              let k = min (!idles * segment) total in
              if !mismatch = None && cursors srcs <> expected.(k) then
                mismatch := Some (Printf.sprintf "idle %d (item %d)" !idles k))
            eng (Array.to_list srcs));
      match !mismatch with
      | Some where -> Error ("cursors differ at " ^ where)
      | None when !idles <> (total / segment) + 1 ->
          Error (Printf.sprintf "%d on_idle calls for %d items" !idles total)
      | None -> Ok ())

(* Every item of a merge run, with every source's cursors after each
   pull. *)
let merge_run srcs =
  let next = Ingest.merge (Array.to_list srcs) in
  let rec go acc =
    match next () with
    | Some item -> go ((item, cursors srcs) :: acc)
    | None -> List.rev acc
  in
  go []

(* Resume: fresh sources, each [Ingest.skip]ped to its cursor after [k]
   pulls of an uninterrupted run, must emit the rest of that run item
   for item, with the same cursors after every pull.  A snapshot may
   cut the stream anywhere, so this must hold for every [k]. *)
let test_resume_continues_run () =
  Prop.check_gen ~name:"resume from any cursors = rest of the run" ~count:100
    ~gen:(fun rng ->
      let specs = gen_synth_sources rng in
      let total = List.fold_left (fun acc l -> acc + List.length l) 0 specs in
      (Rng.int_in rng 0 total, specs))
    ~shrink:(fun (k, specs) ->
      List.map (fun s -> (k, s)) (Prop.shrink_candidates specs))
    ~to_string:(fun (k, specs) ->
      Printf.sprintf "k %d, %s" k (synth_sources_to_string specs))
    (fun (k, specs) ->
      let full = merge_run (Array.of_list (synth_sources specs (ref []))) in
      let k = min k (List.length full) in
      let at_k =
        if k = 0 then Array.make (List.length specs) 0
        else snd (List.nth full (k - 1))
      in
      let srcs = Array.of_list (synth_sources specs (ref [])) in
      Array.iteri (fun i s -> Ingest.skip s at_k.(i)) srcs;
      let rest = merge_run srcs in
      if rest = List.filteri (fun i _ -> i >= k) full then Ok ()
      else
        Error
          (Printf.sprintf "resumed after %d of %d pulls: %d pulls differ" k
             (List.length full) (List.length rest)))

let item_pid = function
  | Engine.I_event e -> e.Pift_trace.Event.pid
  | Engine.I_source { pid; _ } | Engine.I_sink { pid; _ } -> pid

(* [n] tenants, each [l] dense seqs long from its own start: a tenant
   runs on for a whole window, so the merged stream changes tenant at
   most n * (ceil (l / W) + 1) times — the + 1 for a start that is not
   window-aligned — where a per-seq order would change it on every
   item. *)
let test_tenant_switch_bound () =
  let rng = Rng.create 4096 in
  let cases =
    [ (2, 3 * window, 0); (8, window, 0); (5, (2 * window) + 1, window - 1) ]
    @ List.init 12 (fun _ ->
          (Rng.int_in rng 1 16, Rng.int rng (3 * window), Rng.int rng window))
  in
  List.iter
    (fun (n, l, start) ->
      let specs =
        List.init n (fun _ -> List.init l (fun j -> S_event (start + j)))
      in
      let pids =
        List.map
          (fun (item, _) -> item_pid item)
          (merge_run (Array.of_list (synth_sources specs (ref []))))
      in
      let rec count acc = function
        | a :: (b :: _ as tl) -> count (if a <> b then acc + 1 else acc) tl
        | _ -> acc
      in
      let switches = count 0 pids in
      let bound = n * (((l + window - 1) / window) + 1) in
      if switches > bound then
        Alcotest.failf "%d tenants x %d seqs from %d: %d switches > %d" n l
          start switches bound)
    cases

(* --- fill path = per-item view --------------------------------------------- *)

(* [Ingest.run] drains [Ingest.fill]: records decoded straight into the
   engine's batch rows.  [Ingest.merge] is the per-item view of the same
   schedule.  Over the same inputs both must emit the same items in the
   same order with the same cursors, for text, binary and in-memory
   sources alike, and a run over fills must leave the engine exactly as
   the per-item path does. *)

module Row = Pift_trace.Row

type fill_kind = Fill_memory | Fill_text | Fill_binary

let fill_kind_to_string = function
  | Fill_memory -> "memory"
  | Fill_text -> "text"
  | Fill_binary -> "binary"

(* An event flagged [true] runs in a child process, [child_offset] pids
   above the recording's main pid, inside its tenant's pid block. *)
let child_offset = 6

type fill_case = {
  fc_specs : (synth_item * bool) list list;
  fc_kind : fill_kind;
  fc_segment : int;
  fc_batch : int;
  fc_shards : int;
  fc_drop : bool;
}

let fill_case_to_string c =
  Printf.sprintf "%s, segment %d, batch %d, shards %d%s, %s"
    (fill_kind_to_string c.fc_kind) c.fc_segment c.fc_batch c.fc_shards
    (if c.fc_drop then ", drop" else "")
    (synth_sources_to_string (List.map (List.map fst) c.fc_specs))

(* Source [i] as a recording; item [j]'s range names (i, j). *)
let fill_recording i items =
  let trace = Pift_trace.Trace.create () in
  let markers = ref [] in
  List.iteri
    (fun j (it, child) ->
      let r = Range.of_len ((((i * 64) + j) * 32) + 4096) 8 in
      match it with
      | S_event seq ->
          Per_event.add trace
            {
              Pift_trace.Event.seq;
              k = j;
              pid = (synth_orig_pid + if child then child_offset else 0);
              access =
                (match j mod 3 with
                | 0 -> Pift_trace.Event.Load r
                | 1 -> Pift_trace.Event.Store r
                | _ -> Pift_trace.Event.Other);
            }
      | S_source seq ->
          markers := (seq, Recorded.Source { kind = "K"; range = r }) :: !markers
      | S_sink seq ->
          markers :=
            (seq, Recorded.Sink { kind = "K"; ranges = [ r ] }) :: !markers)
    items;
  {
    Recorded.name = Printf.sprintf "fill%d" i;
    trace;
    markers = Array.of_list (List.rev !markers);
    pid = synth_orig_pid;
    bytecodes = 0;
    frag_hits = 0;
    frag_misses = 0;
  }

(* [f] gets a maker of fresh sources over the case's inputs. *)
let with_fill_inputs c f =
  let recs = List.mapi fill_recording c.fc_specs in
  let paths =
    match c.fc_kind with
    | Fill_memory -> []
    | Fill_text | Fill_binary ->
        let format =
          if c.fc_kind = Fill_text then Trace_io.Text else Trace_io.Binary
        in
        List.map
          (fun r ->
            let path = Tmp_file.path "pift_fill" ".pift" in
            Trace_io.save ~format r path;
            path)
          recs
  in
  let fresh () =
    Array.of_list
      (List.mapi
         (fun i r ->
           let pid = Ingest.tenant_pid i in
           match paths with
           | [] -> Ingest.of_recorded ~pid r
           | _ -> Ingest.of_file ~pid (List.nth paths i))
         recs)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () -> f fresh)

let test_batch rows =
  {
    Engine.b_rows = Array.make (rows * Row.width) 0;
    b_side = Array.make rows (Engine.S_sink { pid = 0; kind = ""; ranges = [] });
    b_len = 0;
  }

let item_of_side = function
  | Engine.S_source { pid; kind; range } -> Engine.I_source { pid; kind; range }
  | Engine.S_sink { pid; kind; ranges } -> Engine.I_sink { pid; kind; ranges }

(* Row [r] of [b] as its item and the count of items it stands for; a
   counted row's event is the run's with the largest seq and last k. *)
let row_item (b : Engine.batch) r =
  let o = r * Row.width in
  ( (if b.Engine.b_rows.(o) = Row.tag_item then item_of_side b.Engine.b_side.(r)
     else Engine.I_event (Row.event b.Engine.b_rows o)),
    Row.count b.Engine.b_rows o )

(* The reference fold: the rows a fill writes for [items], [room] rows a
   call, each call into an emptied batch.  A non-memory event joins the
   row before it when that row is a non-memory run of the same pid in
   the same call; a call that has written [room] rows ends before the
   next item, so a full batch starts the next call. *)
let fold_rows ~room items =
  let rows = ref [] and used = ref 0 in
  List.iter
    (fun item ->
      if !used = room then used := 0;
      match (item, !rows) with
      | ( Engine.I_event ({ Pift_trace.Event.access = Other; _ } as e),
          (Engine.I_event ({ Pift_trace.Event.access = Other; _ } as last), n)
          :: rest )
        when !used > 0 && last.Pift_trace.Event.pid = e.Pift_trace.Event.pid ->
          let seq = max last.Pift_trace.Event.seq e.Pift_trace.Event.seq in
          rows := (Engine.I_event { e with Pift_trace.Event.seq }, n + 1) :: rest
      | _ ->
          rows := (item, 1) :: !rows;
          incr used)
    items;
  List.rev !rows

(* [Ingest.fill] driven by hand, [batch] rows a call: every row with its
   count, and the cursors after each call with the number of items so
   far. *)
let fill_run ~batch srcs =
  let fill = Ingest.fill (Array.to_list srcs) in
  let b = test_batch batch in
  let rows = ref [] and cuts = ref [] and n = ref 0 in
  let rec go () =
    b.Engine.b_len <- 0;
    let more = fill b batch in
    for r = 0 to b.Engine.b_len - 1 do
      let row = row_item b r in
      rows := row :: !rows;
      n := !n + snd row
    done;
    cuts := (!n, cursors srcs) :: !cuts;
    if more then go ()
  in
  go ();
  Array.iter Ingest.close srcs;
  (List.rev !rows, List.rev !cuts)

(* The per-item path [Ingest.run] took before it filled rows: the
   merged stream in per-segment budgets through [Engine.run]. *)
let item_path_run ~segment ~on_idle eng srcs =
  Array.iter
    (fun s ->
      Engine.register_tenant eng ~pid:s.Ingest.src_pid ~name:s.Ingest.src_name ())
    srcs;
  let stream = Ingest.merge (Array.to_list srcs) in
  let exhausted = ref false and budget = ref 0 in
  let bounded () =
    if !budget = 0 then None
    else
      match stream () with
      | None ->
          exhausted := true;
          None
      | Some item ->
          decr budget;
          Some item
  in
  while not !exhausted do
    budget := segment;
    Engine.run eng bounded;
    on_idle ()
  done;
  Array.iter Ingest.close srcs

(* One engine run over fresh sources: the cursors at every [on_idle],
   every resident tenant's snapshot, and the per-shard counts that do
   not depend on timing. *)
let engine_outcome c ~drop fresh run =
  Engine.with_engine ~shards:c.fc_shards ~batch:c.fc_batch
    ~queue_capacity:(if drop then 1 else 2)
    ~drop_when_full:drop (fun eng ->
      let srcs = fresh () in
      let idles = ref [] in
      run ~segment:c.fc_segment
        ~on_idle:(fun () -> idles := cursors srcs :: !idles)
        eng srcs;
      let st = Engine.stats eng in
      ( List.rev !idles,
        List.map
          (fun pid -> Option.get (Engine.snapshot_tenant eng ~pid))
          (Engine.tenants eng),
        st,
        List.map
          (fun ss ->
            Engine.(ss.ss_shard, ss.ss_items, ss.ss_events, ss.ss_batches))
          st.Engine.st_shards ))

let fill_matches_items c =
  with_fill_inputs c (fun fresh ->
      let merged = merge_run (fresh ()) in
      let total = List.length merged in
      let cursors_at k =
        if k = 0 then Array.make (List.length c.fc_specs) 0
        else snd (List.nth merged (k - 1))
      in
      let rows, cuts = fill_run ~batch:c.fc_batch (fresh ()) in
      let want_idles, want_tenants, want_st, want_shards =
        engine_outcome c ~drop:false fresh item_path_run
      in
      let idles, tenants, st, shards =
        engine_outcome c ~drop:c.fc_drop fresh (fun ~segment ~on_idle eng srcs ->
            Ingest.run ~segment ~on_idle eng (Array.to_list srcs))
      in
      let dropped =
        List.fold_left (fun acc ts -> acc + ts.Engine.ts_dropped) 0 tenants
      in
      let want_of pid =
        List.find_opt (fun ts -> ts.Engine.ts_pid = pid) want_tenants
      in
      if rows <> fold_rows ~room:c.fc_batch (List.map fst merged) then
        Error "fill rows <> the reference fold of the merge items"
      else if
        List.exists (fun (k, cur) -> k > total || cur <> cursors_at k) cuts
      then Error "cursors after a fill call <> merge cursors"
      else if
        want_idles
        <> List.init ((total / c.fc_segment) + 1) (fun i ->
               cursors_at (min total ((i + 1) * c.fc_segment)))
      then Error "per-item path: on_idle cursors <> merge cursors"
      else if idles <> want_idles then Error "on_idle cursors differ"
      else if c.fc_drop then
        if dropped <> st.Engine.st_dropped then
          Error "per-tenant drops do not sum to the engine's"
        else if st.Engine.st_items + dropped <> want_st.Engine.st_items then
          Error "processed + dropped <> items"
        else if
          List.exists
            (fun ts ->
              ts.Engine.ts_dropped = 0 && want_of ts.Engine.ts_pid <> Some ts)
            tenants
        then Error "a tenant that lost nothing differs"
        else Ok ()
      else if tenants <> want_tenants then Error "tenant snapshots differ"
      else if shards <> want_shards then
        Error "per-shard items, events or batches differ"
      else Ok ())

let segments = [ 1; 7; 50 ]
let batches = [ 1; 3; 128 ]
let fill_kinds = [ Fill_memory; Fill_text; Fill_binary ]

let gen_fill_specs rng =
  List.init (Rng.int_in rng 0 5) (fun _ ->
      let items =
        List.concat
          (List.init (Rng.int_in rng 0 4) (fun _ -> gen_synth_source rng))
      in
      List.map (fun it -> (it, Rng.int rng 5 = 0)) items)

let gen_fill_case rng =
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  {
    fc_specs = gen_fill_specs rng;
    fc_kind = pick fill_kinds;
    fc_segment = pick segments;
    fc_batch = pick batches;
    fc_shards = pick [ 1; 2; 4 ];
    fc_drop = Rng.int rng 4 = 0;
  }

(* Every kind x segment x batch over one fixed input: two tenants with
   child pids at 4 shards, seqs on both sides of a window boundary,
   markers reusing an event's seq. *)
let fixed_fill_cases =
  let w = window in
  let specs =
    [
      List.init 60 (fun j ->
          let seq = if j < 30 then w - 31 + j else (2 * w) - 60 + j in
          ((if j mod 11 = 5 then S_source seq else S_event seq), j mod 4 = 1));
      List.init 45 (fun j ->
          let seq = w - 20 + j in
          ((if j mod 9 = 8 then S_sink seq else S_event seq), j mod 3 = 0));
    ]
  in
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun segment ->
          List.map
            (fun batch ->
              {
                fc_specs = specs;
                fc_kind = kind;
                fc_segment = segment;
                fc_batch = batch;
                fc_shards = 4;
                fc_drop = false;
              })
            batches)
        segments)
    fill_kinds

let test_fill_matches_items () =
  List.iter
    (fun c ->
      match fill_matches_items c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s@.%s" e (fill_case_to_string c))
    fixed_fill_cases;
  Prop.check_gen ~name:"fill path = per-item view" ~count:40 ~gen:gen_fill_case
    ~shrink:(fun c ->
      List.map (fun s -> { c with fc_specs = s }) (Prop.shrink_candidates c.fc_specs))
    ~to_string:fill_case_to_string fill_matches_items

(* --- streaming trace readers (satellite) ----------------------------------- *)

let with_tmp ~suffix f = Tmp_file.with_path "pift_service_test" suffix f

let drain_reader path =
  Trace_io.with_reader path (fun r ->
      let items = ref [] in
      let rec go () =
        match Trace_io.read_item r with
        | Some it ->
            items := it :: !items;
            go ()
        | None -> ()
      in
      go ();
      (Trace_io.reader_header r, List.rev !items))

let items_of_recording = Per_event.items

let test_reader_matches_load () =
  let r = List.hd (Lazy.force recordings) in
  List.iter
    (fun format ->
      with_tmp ~suffix:".pift" (fun path ->
          Trace_io.save ~format r path;
          let h, streamed = drain_reader path in
          checks "header name" r.Recorded.name h.Trace_io.h_name;
          checki "header pid" r.Recorded.pid h.Trace_io.h_pid;
          let loaded = Trace_io.load path in
          checkb
            (Printf.sprintf "streamed = loaded items (%s)"
               (Trace_io.format_to_string format))
            true
            (streamed = items_of_recording loaded)))
    [ Trace_io.Text; Trace_io.Binary ]

(* Records larger than the reader's chunk, and than 64 KiB, must be
   buffered whole: a source marker with a 70 kB kind and a sink marker
   with 30k ranges, appended after the last event. *)
let test_reader_oversized_records () =
  let r = List.hd (Lazy.force recordings) in
  let seq = ref 0 in
  Pift_trace.Trace.iter
    (fun e -> seq := e.Pift_trace.Event.seq)
    r.Recorded.trace;
  let seq = !seq in
  let big_source =
    Recorded.Source { kind = String.make 70_000 'k'; range = Range.of_len 0 4 }
  and big_sink =
    Recorded.Sink
      {
        kind = "wide";
        ranges = List.init 30_000 (fun i -> Range.of_len (i * 1000) 4);
      }
  in
  let r =
    {
      r with
      Recorded.markers =
        Array.append r.Recorded.markers
          [| (seq, big_source); (seq, big_sink) |];
    }
  in
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format:Trace_io.Binary r path;
      let _, streamed = drain_reader path in
      checkb "streamed = loaded items" true
        (streamed = items_of_recording (Trace_io.load path));
      match List.rev streamed with
      | Recorded.Item_marker (s2, m2) :: Recorded.Item_marker (s1, m1) :: _ ->
          checkb "oversized markers intact" true
            ((s1, m1) = (seq, big_source) && (s2, m2) = (seq, big_sink))
      | _ -> Alcotest.fail "trace does not end in the two markers")

(* A varint is at most 9 bytes: a load record whose seq delta takes
   ten ([80 x 9, 01]) is refused, not decoded with its last byte
   shifted by 63 bits. *)
let test_binary_ten_byte_varint () =
  let field = String.make 9 '\x80' ^ "\x01" in
  let payload = "\000" ^ field ^ "\000\005\000\001" in
  let bytes =
    "PIFTBIN1\001x\005\000"
    ^ String.make 1 (Char.chr (String.length payload))
    ^ payload
  in
  with_tmp ~suffix:".pift" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      Alcotest.check_raises "10-byte seq delta"
        (Failure "Trace_io: record 1: varint overflow") (fun () ->
          ignore (Trace_io.load path)))

let test_truncated_binary_positioned_error () =
  let r = List.hd (Lazy.force recordings) in
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format:Trace_io.Binary r path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      with_tmp ~suffix:".pift" (fun cut_path ->
          (* cut mid-stream: deep enough to leave the header and many
             records intact, shallow enough to chop a record *)
          let cut = String.length full * 2 / 3 in
          Out_channel.with_open_bin cut_path (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          Trace_io.with_reader cut_path (fun rd ->
              let n = ref 0 in
              let msg =
                try
                  let rec go () =
                    match Trace_io.read_item rd with
                    | Some _ ->
                        incr n;
                        go ()
                    | None -> None
                  in
                  go ()
                with Failure m -> Some m
              in
              match msg with
              | None -> Alcotest.fail "truncated file read to EOF cleanly"
              | Some m ->
                  checkb "items delivered before the cut" true (!n > 0);
                  (* the error names the failing record, one past the
                     items already delivered *)
                  let expected =
                    Printf.sprintf "Trace_io: record %d" (!n + 1)
                  in
                  checkb
                    (Printf.sprintf "positioned error %S mentions %S" m
                       expected)
                    true
                    (String.length m >= String.length expected
                    && String.sub m 0 (String.length expected) = expected))))

(* --- decoder mutation property ---------------------------------------------- *)

(* [mutation_fixture.pift] is DirectLeak1 recorded as PIFTBIN1 (21
   events: loads, stores and others; a source and a two-range sink),
   [mutation_fixture_text.pift] its text twin; both sit beside the test
   executable, where the [deps] field of test/dune puts them.  Every
   mutant goes through both ways of reading a trace: [Trace_io.read_item],
   and the fill path ([Ingest.of_file] + [Ingest.fill]).  They share one
   decoder, so they must deliver the same records, or fail with the same
   positioned message; no other exception may escape. *)
let fixture name = Filename.concat (Filename.dirname Sys.executable_name) name

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The items of a trace and the failure that ended them, if any. *)
type outcome = Engine.item list * string option

let mutant_pid = Ingest.tenant_pid 0

(* [read_item], each item remapped as the fill path remaps it: a pid
   outside the tenant's block fails there with [Ingest:]'s refusal. *)
let read_item_outcome path : outcome =
  match Ingest.of_file ~pid:mutant_pid path with
  | exception Failure m -> ([], Some m)
  | s ->
      let items = ref [] in
      let rec go () =
        match s.Ingest.src_next () with
        | None -> None
        | Some it ->
            s.Ingest.src_emitted <- s.Ingest.src_emitted + 1;
            items := Ingest.to_engine_item s it :: !items;
            go ()
      in
      let failure = try go () with Failure m -> Some m in
      Ingest.close s;
      (List.rev !items, failure)

(* The rows a fill of [fill_room] rows a call wrote, and the failure
   that ended them. *)
let fill_room = 4

let fill_outcome path =
  match Ingest.of_file ~pid:mutant_pid path with
  | exception Failure m -> ([], Some m)
  | s ->
      let fill = Ingest.fill [ s ] in
      let room = fill_room in
      let b = test_batch room in
      let items = ref [] in
      let collect () =
        for r = 0 to b.Engine.b_len - 1 do
          items := row_item b r :: !items
        done
      in
      let rec go () =
        b.Engine.b_len <- 0;
        match fill b room with
        | more ->
            collect ();
            if more then go () else None
        | exception Failure m ->
            collect ();
            Some m
      in
      let failure = go () in
      Ingest.close s;
      (List.rev !items, failure)

(* Tallies of the mutants that decoded whole and that failed. *)
let check_mutant ~what ~clean ~failed path bytes =
  Tmp_file.write path bytes;
  let outcome f =
    try f path
    with e ->
      Alcotest.failf "%s: %s escaped the decoder" what (Printexc.to_string e)
  in
  let ((items, want_failure) as want) = outcome read_item_outcome in
  let got = outcome fill_outcome in
  if got <> (fold_rows ~room:fill_room items, want_failure) then
    Alcotest.failf "%s: fill path %s, read_item %s" what
      (match got with
      | rows, None -> Printf.sprintf "decoded %d rows" (List.length rows)
      | rows, Some m ->
          Printf.sprintf "failed after %d rows: %s" (List.length rows) m)
      (match want with
      | items, None -> Printf.sprintf "decoded %d items" (List.length items)
      | items, Some m -> Printf.sprintf "failed after %d items: %s" (List.length items) m);
  match want_failure with
  | None -> incr clean
  | Some m ->
      let positioned prefix =
        String.length m > String.length prefix
        && String.sub m 0 (String.length prefix) = prefix
      in
      if not (positioned "Trace_io: " || positioned "Ingest: ") then
        Alcotest.failf "%s: unpositioned failure %S" what m;
      incr failed

let flip bytes bit =
  let b = Bytes.of_string bytes in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let test_decoder_mutations () =
  let bin = read_file (fixture "mutation_fixture.pift")
  and text = read_file (fixture "mutation_fixture_text.pift") in
  let clean = ref 0 and failed = ref 0 in
  with_tmp ~suffix:".pift" (fun path ->
      check_mutant ~what:"binary fixture" ~clean ~failed path bin;
      let want = read_item_outcome path in
      check_mutant ~what:"text fixture" ~clean ~failed path text;
      checkb "text twin = binary fixture" true (read_item_outcome path = want);
      checkb "the fixture decodes whole" true
        (snd want = None && List.length (fst want) = 23);
      List.iter
        (fun (name, bytes) ->
          for bit = 0 to (8 * String.length bytes) - 1 do
            check_mutant ~clean ~failed path (flip bytes bit)
              ~what:(Printf.sprintf "%s: bit %d flipped" name bit)
          done;
          for len = 0 to String.length bytes - 1 do
            check_mutant ~clean ~failed path (String.sub bytes 0 len)
              ~what:(Printf.sprintf "%s: cut to %d bytes" name len)
          done)
        [ ("binary", bin); ("text", text) ];
      Prop.check_gen ~name:"0xff runs and splices" ~count:400
        ~gen:(fun rng ->
          let name, bytes = if Rng.int rng 4 = 0 then ("text", text) else ("binary", bin) in
          let what, mutant = Prop.gen_mutation bytes rng in
          (name ^ ": " ^ what, mutant))
        ~shrink:(fun _ -> [])
        ~to_string:fst
        (fun (what, mutant) ->
          check_mutant ~what ~clean ~failed path mutant;
          Ok ()));
  checkb
    (Printf.sprintf "mutants both decode (%d) and fail (%d)" !clean !failed)
    true
    (!clean > 0 && !failed > 0)

(* --- counted rows ----------------------------------------------------------- *)

(* A run of one pid's non-memory instructions travels as one counted
   row.  These pin where runs fold and where they split, and that every
   count the engine keeps stays in items. *)

let ev seq pid access = { Pift_trace.Event.seq; k = seq; pid; access }

let counted_recording ?(markers = [||]) events =
  let trace = Pift_trace.Trace.create () in
  List.iter (Per_event.add trace) events;
  {
    Recorded.name = "counted";
    trace;
    markers;
    pid = 7;
    bytecodes = 0;
    frag_hits = 0;
    frag_misses = 0;
  }

(* The rows [Ingest.fill] writes, [room] a call, each call into an
   emptied batch: (tag, pid, seq, k, count) per row, one list per
   call. *)
let fill_calls ~room srcs =
  let fill = Ingest.fill srcs and b = test_batch room in
  let rec go acc =
    b.Engine.b_len <- 0;
    let more = fill b room in
    let rows = b.Engine.b_rows in
    let call =
      List.init b.Engine.b_len (fun r ->
          let o = r * Row.width in
          (rows.(o), rows.(o + 1), rows.(o + 2), rows.(o + 3), Row.count rows o))
    in
    if more then go (call :: acc) else List.rev (call :: acc)
  in
  go []

let t_other = Row.tag_other
and t_load = Row.tag_load
and t_store = Row.tag_store
let r8 = Range.of_len 64 8

let test_fold_batch_room () =
  let p = Ingest.tenant_pid 0 in
  let other s = ev s 7 Pift_trace.Event.Other in
  let r =
    counted_recording
      [
        ev 1 7 (Pift_trace.Event.Load r8); other 2; other 3; other 4; other 5;
        ev 6 7 (Pift_trace.Event.Store r8); other 7; other 8; other 9;
      ]
  in
  checkb "a full batch splits the run" true
    (fill_calls ~room:2 [ Ingest.of_recorded ~pid:p r ]
    = [
        [ (t_load, p, 1, 1, 1); (t_other, p, 2, 2, 1) ];
        [ (t_other, p, 5, 5, 3); (t_store, p, 6, 6, 1) ];
        [ (t_other, p, 9, 9, 3) ];
      ])

(* A run that crosses a window boundary stays one row while its source
   keeps the schedule; another tenant's row in between splits it. *)
let test_fold_window_boundary () =
  let w = window in
  let p0 = Ingest.tenant_pid 0 and p1 = Ingest.tenant_pid 1 in
  let run () =
    counted_recording
      (List.map
         (fun s -> ev s 7 Pift_trace.Event.Other)
         [ w - 2; w - 1; w; w + 1 ])
  in
  checkb "one source: one row" true
    (fill_calls ~room:128 [ Ingest.of_recorded ~pid:p0 (run ()) ]
    = [ [ (t_other, p0, w + 1, w + 1, 4) ] ]);
  let other = counted_recording [ ev (w - 1) 7 (Pift_trace.Event.Load r8) ] in
  checkb "a row of window w - 1 splits it" true
    (fill_calls ~room:128
       [ Ingest.of_recorded ~pid:p0 (run ()); Ingest.of_recorded ~pid:p1 other ]
    = [
        [
          (t_other, p0, w - 1, w - 1, 2);
          (t_load, p1, w - 1, w - 1, 1);
          (t_other, p0, w + 1, w + 1, 2);
        ];
      ])

(* Another pid of the same tenant, or a marker, ends a run: a fold needs
   the same engine pid in the row before. *)
let test_fold_pid_change () =
  let p = Ingest.tenant_pid 0 in
  let other s pid = ev s pid Pift_trace.Event.Other in
  let r =
    counted_recording
      ~markers:[| (6, Recorded.Sink { kind = "K"; ranges = [ r8 ] }) |]
      [
        other 1 7; other 2 7; other 3 8; other 4 8; other 5 7; other 6 7;
        other 7 7;
      ]
  in
  checkb "pid changes and a marker split the run" true
    (fill_calls ~room:128 [ Ingest.of_recorded ~pid:p r ]
    = [
        [
          (t_other, p, 2, 2, 2);
          (t_other, p + 1, 4, 4, 2);
          (t_other, p, 6, 6, 2);
          (Row.tag_item, p, 6, 0, 1);
          (t_other, p, 7, 7, 1);
        ];
      ])

(* Segment budgets count items: a run of ten folds only up to each
   budget, and at every [on_idle] the cursor and the engine's items
   agree exactly. *)
let test_fold_segment_budget () =
  let p = Ingest.tenant_pid 0 in
  let r =
    counted_recording
      (List.init 10 (fun i -> ev (i + 1) 7 Pift_trace.Event.Other)
      @ [ ev 11 7 (Pift_trace.Event.Load r8) ])
  in
  Engine.with_engine ~shards:2 (fun eng ->
      let s = Ingest.of_recorded ~pid:p r in
      let seen = ref [] in
      Ingest.run ~segment:4
        ~on_idle:(fun () ->
          seen := (Ingest.cursor s, (Engine.stats eng).Engine.st_items) :: !seen)
        eng [ s ];
      checkb "cursors and items at each idle" true
        (List.rev !seen = [ (4, 4); (8, 8); (11, 11) ]);
      checki "events" 11
        (Option.get (Engine.snapshot_tenant eng ~pid:p)).Engine.ts_stats
          .Tracker.events)

(* An injected fault counts items, so it can land inside a counted row:
   the row's first items are processed, the rest are not. *)
let test_fold_fault_inside_row () =
  let p = Ingest.tenant_pid 0 in
  let others from n =
    List.init n (fun i ->
        Engine.I_event (ev (from + i) p Pift_trace.Event.Other))
  in
  Engine.with_engine ~shards:1 (fun eng ->
      Engine.inject_fault eng ~shard:0 ~after_items:4;
      (match Engine.run eng (stream_of_list (others 1 10)) with
      | () -> Alcotest.fail "the fault did not fire"
      | exception Engine.Injected_fault 0 -> ());
      let events () =
        (Option.get (Engine.snapshot_tenant eng ~pid:p)).Engine.ts_stats
          .Tracker.events
      in
      checki "items before the fault" 4 (Engine.stats eng).Engine.st_items;
      checki "events before the fault" 4 (events ());
      Engine.run eng (stream_of_list (others 11 3));
      checki "items after another run" 7 (Engine.stats eng).Engine.st_items;
      checki "events after another run" 7 (events ()))

(* Dropping charges a refused batch's items, not its rows: processed
   plus dropped is every item, and the tenants' drops sum to the
   engine's. *)
let test_fold_drop_counts_items () =
  let rng = Rng.create 26 in
  let items = ref [] in
  for i = 0 to 399 do
    let pid = Ingest.tenant_pid (i mod 3) in
    for j = 0 to Rng.int_in rng 0 39 do
      let access =
        if j = 0 then Pift_trace.Event.Load r8 else Pift_trace.Event.Other
      in
      items := Engine.I_event (ev i pid access) :: !items
    done
  done;
  let items = List.rev !items in
  Engine.with_engine ~shards:2 ~queue_capacity:1 ~batch:2 ~drop_when_full:true
    (fun eng ->
      Engine.run eng (stream_of_list items);
      let st = Engine.stats eng in
      let tenant_drops =
        List.fold_left
          (fun acc pid ->
            let ts = Option.get (Engine.snapshot_tenant eng ~pid) in
            acc + ts.Engine.ts_dropped)
          0 (Engine.tenants eng)
      in
      checki "processed + dropped = items" (List.length items)
        (st.Engine.st_items + st.Engine.st_dropped);
      checki "tenant drops sum to the engine's" st.Engine.st_dropped
        tenant_drops)

(* Every reader writes a non-memory event as a counted row of 1 —
   binary, text and in-memory alike — and a fill folds the three the
   same way. *)
let test_fold_readers_count_one () =
  let p = Ingest.tenant_pid 0 in
  let r =
    counted_recording
      ~markers:[| (2, Recorded.Source { kind = "K"; range = r8 }) |]
      (List.init 9 (fun i ->
           ev (i + 1) 7
             (if i mod 4 = 3 then Pift_trace.Event.Store r8
              else Pift_trace.Event.Other)))
  in
  let counts rd =
    let row = Array.make Row.width 0 and acc = ref [] in
    while Trace_io.read_row rd row 0 do
      if row.(0) = Row.tag_other then acc := row.(5) :: !acc
    done;
    List.rev !acc
  in
  let header = { Trace_io.h_name = "counted"; h_pid = 7; h_bytecodes = 0 } in
  checkb "in memory: counts of 1" true
    (List.for_all (( = ) 1)
       (counts (Per_event.of_items header (Per_event.items r))));
  let memory = fill_calls ~room:128 [ Ingest.of_recorded ~pid:p r ] in
  List.iter
    (fun format ->
      with_tmp ~suffix:".pift" (fun path ->
          Trace_io.save ~format r path;
          let what = Trace_io.format_to_string format in
          checkb (what ^ ": counts of 1") true
            (List.for_all (( = ) 1) (Trace_io.with_reader path counts));
          let s = Ingest.of_file ~pid:p path in
          let rows = fill_calls ~room:128 [ s ] in
          Ingest.close s;
          checkb (what ^ ": the rows of the in-memory fill") true
            (rows = memory)))
    [ Trace_io.Text; Trace_io.Binary ];
  checki "the fill folded" 7 (List.length (List.hd memory))

(* The sidecar probes a window's label sets lazily, at the first thing
   that reads or changes them.  Between the opening load and the first
   in-window store, a source on a label that already exists, over the
   very bytes the load read, must stay out of the window; an untaint of
   those bytes must not take the load's label out of it.  Both are what
   an opening that probed at once decided. *)
let test_provenance_lazy_probe_source () =
  let p = Provenance.create () in
  let t = Tracker.create ~policy:(Policy.make ~ni:8 ~nt:2 ()) ~prov:p () in
  Tracker.taint_source ~kind:"A" t ~pid:1 (Range.of_len 0 16);
  Tracker.taint_source ~kind:"B" t ~pid:1 (Range.of_len 100 16);
  let observe seq access =
    Tracker.observe t { Pift_trace.Event.seq; k = seq; pid = 1; access }
  in
  observe 1 (Pift_trace.Event.Load (Range.of_len 4 4));
  Tracker.taint_source ~kind:"B" t ~pid:1 (Range.of_len 4 4);
  observe 2 (Pift_trace.Event.Store (Range.of_len 200 4));
  checkb "the store carries the opener's labels only" true
    (Provenance.labels_of p ~pid:1 (Range.of_len 200 4) = [ "A" ]);
  checkb "the source itself landed" true
    (Provenance.labels_of p ~pid:1 (Range.of_len 4 4) = [ "A"; "B" ]);
  observe 3 (Pift_trace.Event.Load (Range.of_len 100 4));
  Tracker.untaint_range t ~pid:1 (Range.of_len 100 16);
  observe 4 (Pift_trace.Event.Store (Range.of_len 300 4));
  checkb "an untaint after the load keeps its label in" true
    (Provenance.labels_of p ~pid:1 (Range.of_len 300 4) = [ "B" ])

(* [probes] counts each opening's label visits when the window opens,
   whether or not anything ever resolves it: three openings over two
   labels cost six, and the store that resolves the last adds none. *)
let test_provenance_lazy_probe_counts () =
  let p = Provenance.create () in
  let t = Tracker.create ~policy:(Policy.make ~ni:8 ~nt:2 ()) ~prov:p () in
  Tracker.taint_source ~kind:"A" t ~pid:1 (Range.of_len 0 16);
  Tracker.taint_source ~kind:"B" t ~pid:1 (Range.of_len 100 16);
  let before = Provenance.probes p in
  for seq = 1 to 3 do
    Tracker.observe t
      {
        Pift_trace.Event.seq;
        k = seq;
        pid = 1;
        access = Pift_trace.Event.Load (Range.of_len 4 4);
      }
  done;
  checki "three openings, two labels" 6 (Provenance.probes p - before);
  Tracker.observe t
    {
      Pift_trace.Event.seq = 4;
      k = 4;
      pid = 1;
      access = Pift_trace.Event.Store (Range.of_len 200 4);
    };
  checki "resolving adds no probe" 6 (Provenance.probes p - before)

(* A snapshot taken while a window waits for its probe: the persisted
   window names the labels its load hit, the PIFTSNAP1 bytes equal a
   second snapshot's (taken once the first resolved it), and a tenant
   restored from it propagates exactly those labels. *)
let test_provenance_lazy_probe_persist () =
  let pid = Ingest.tenant_pid 0 in
  let event seq access =
    Engine.I_event { Pift_trace.Event.seq; k = seq; pid; access }
  in
  let items =
    [
      Engine.I_source { pid; kind = "A"; range = Range.of_len 0 16 };
      Engine.I_source { pid; kind = "B"; range = Range.of_len 100 16 };
      Engine.I_source { pid; kind = "C"; range = Range.of_len 300 16 };
      event 1 (Pift_trace.Event.Load (Range.of_len 8 100));
      event 2 Pift_trace.Event.Other;
    ]
  in
  with_tmp ~suffix:".piftsnap" (fun first ->
      with_tmp ~suffix:".piftsnap" (fun second ->
          Engine.with_engine ~with_origins:true (fun eng ->
              Engine.run eng (stream_of_list items);
              Pift_service.Snapshot.save eng first;
              Pift_service.Snapshot.save eng second;
              checks "PIFTSNAP1 bytes, pending then resolved"
                (read_file first) (read_file second);
              let tp = Option.get (Engine.persist_tenant eng ~pid) in
              (match tp.Engine.tp_state.Tracker.p_prov with
              | Some { Provenance.ps_windows = [ w ]; _ } ->
                  checkb "persisted window labels" true
                    (w.Provenance.pw_labels = [ "A"; "B" ]);
                  checki "persisted opener seq" 1 w.Provenance.pw_opener_seq
              | _ -> Alcotest.fail "expected one persisted window"));
          Engine.with_engine ~with_origins:true (fun eng ->
              Pift_service.Snapshot.restore_tenants eng
                (Pift_service.Snapshot.load first);
              Engine.run eng
                (stream_of_list
                   [ event 3 (Pift_trace.Event.Store (Range.of_len 500 4)) ]);
              Engine.run eng
                (stream_of_list
                   [
                     Engine.I_sink
                       { pid; kind = "S"; ranges = [ Range.of_len 500 4 ] };
                   ]);
              checkb "restored window propagates its labels" true
                ((Option.get (Engine.snapshot_tenant eng ~pid)).Engine.ts_verdicts
                |> List.map (fun v -> v.Engine.v_origins)
                = [ [ "A"; "B" ] ]))))

(* --- the oracle through the engine ----------------------------------------- *)

(* Three runs of one multi-tenant stream must agree: the naive
   [Reference] model of Algorithm 1, a [Tracker] per tenant, and
   [Ingest.run] through the sharded engine — at 1 and 3 shards, with and
   without segment budgets, and resumed from a snapshot at another shard
   count.  Taint bytes, range counts and sink verdicts are compared
   against all three; origin sets and stats, which [Reference] does not
   keep, against the tracker.  The streams carry long non-memory runs
   (which the engine counts in one row), fork-child pids, and sources
   and sinks landing inside those runs. *)

module Snapshot = Pift_service.Snapshot

type oracle_case = {
  oc_ni : int;
  oc_nt : int;
  oc_recs : Recorded.t list;
  oc_binary : bool;  (* served from PIFTBIN1 files, else in memory *)
  oc_segment : int;
  oc_cut : int;  (* the segment after which the snapshot is taken *)
}

(* One tenant: a source at seq 0, then blocks of non-memory runs (up to
   300 instructions, some seqs shared), loads and stores over a small
   address space, and markers — a run may have a source or sink marker
   at one of its seqs, so the marker lands inside it.  An eighth of the
   blocks run in a forked child.  Draws are sequenced with [let] and
   loops: argument, tuple and record field evaluation order is
   unspecified, and a case must depend on the seed alone. *)
let gen_oracle_recording rng i =
  let main = 40 + i in
  let trace = Pift_trace.Trace.create () in
  let markers =
    ref [ (0, Recorded.Source { kind = "K0"; range = Range.of_len 0 48 }) ]
  in
  let seq = ref 0 and ks = Hashtbl.create 2 in
  let event pid access =
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt ks pid) in
    Hashtbl.replace ks pid k;
    Per_event.add trace { Pift_trace.Event.seq = !seq; k; pid; access }
  in
  let marker () =
    let kind = Printf.sprintf "K%d" (Rng.int rng 3) in
    let m =
      if Rng.bool rng then Recorded.Source { kind; range = Prop.gen_range rng }
      else Recorded.Sink { kind; ranges = [ Prop.gen_range rng ] }
    in
    markers := (!seq, m) :: !markers
  in
  for _ = 1 to Rng.int_in rng 1 14 do
    let pid = if Rng.int rng 8 = 0 then main + 1 + Rng.int rng 3 else main in
    match Rng.int rng 4 with
    | 0 ->
        let len = Rng.int_in rng 1 300 in
        let at = Rng.int rng 300 in
        for j = 0 to len - 1 do
          seq := !seq + Rng.int rng 2;
          if j = at then marker ();
          event pid Pift_trace.Event.Other
        done
    | 1 | 2 ->
        for _ = 1 to Rng.int_in rng 1 12 do
          incr seq;
          let r = Prop.gen_range rng in
          let load = Rng.bool rng in
          event pid
            (if load then Pift_trace.Event.Load r else Pift_trace.Event.Store r)
        done
    | _ -> marker ()
  done;
  {
    Recorded.name = Printf.sprintf "oracle%d" i;
    trace;
    markers = Array.of_list (List.rev !markers);
    pid = main;
    bytecodes = 0;
    frag_hits = 0;
    frag_misses = 0;
  }

let gen_oracle_case rng =
  let oc_ni = Rng.int_in rng 1 16 in
  let oc_nt = Rng.int_in rng 1 4 in
  let tenants = Rng.int_in rng 1 4 in
  let recs = ref [] in
  for i = 0 to tenants - 1 do
    recs := gen_oracle_recording rng i :: !recs
  done;
  let oc_binary = Rng.bool rng in
  let oc_segment = Rng.int_in rng 1 400 in
  let oc_cut = Rng.int_in rng 1 3 in
  { oc_ni; oc_nt; oc_recs = List.rev !recs; oc_binary; oc_segment; oc_cut }

let oracle_case_to_string c =
  Printf.sprintf "ni %d nt %d, %s, segment %d, cut after %d: %s" c.oc_ni
    c.oc_nt
    (if c.oc_binary then "binary" else "memory")
    c.oc_segment c.oc_cut
    (String.concat " | "
       (List.map
          (fun (r : Recorded.t) ->
            Printf.sprintf "%d events, %d markers"
              (Pift_trace.Trace.length r.Recorded.trace)
              (Array.length r.Recorded.markers))
          c.oc_recs))

(* What a run leaves of one engine tenant, that is of one pid:
   (kind, flagged, origins) per sink, live tainted bytes and ranges,
   and the tracker's stats. *)
type oracle_tenant = {
  ot_verdicts : (string * bool * string list) list;
  ot_bytes : int;
  ot_ranges : int;
  ot_stats : Tracker.stats option;  (* [None] from [Reference] *)
}

(* Replay [r]'s items on one model per pid, as the engine keeps one
   tenant per pid: [make] builds a pid's model, [event] feeds it,
   [source] and [sink] run on the main pid's.  Each pid's result, by
   offset from the main pid. *)
let replay_per_pid (r : Recorded.t) ~make ~event ~source ~sink ~result =
  let main = r.Recorded.pid in
  let models = Hashtbl.create 2 and verdicts = ref [] in
  let model pid =
    match Hashtbl.find_opt models pid with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add models pid m;
        m
  in
  Per_event.interleave r
    ~observe:(fun e -> event (model e.Pift_trace.Event.pid) e)
    ~on_marker:(fun _ -> function
      | Recorded.Source { kind; range } ->
          source (model main) ~pid:main kind range
      | Recorded.Sink { kind; ranges } ->
          verdicts := sink (model main) ~pid:main kind ranges :: !verdicts);
  List.sort compare
    (Hashtbl.fold
       (fun pid m acc ->
         let v = if pid = main then List.rev !verdicts else [] in
         (pid - main, result m ~pid v) :: acc)
       models [])

let reference_tenants policy r =
  replay_per_pid r
    ~make:(fun () -> Reference.create policy)
    ~event:Reference.observe
    ~source:(fun m ~pid _ range -> Reference.taint_source m ~pid range)
    ~sink:(fun m ~pid kind ranges ->
      (kind, List.exists (fun x -> Reference.is_tainted m ~pid x) ranges, []))
    ~result:(fun m ~pid:_ verdicts ->
      {
        ot_verdicts = verdicts;
        ot_bytes = Reference.tainted_bytes m;
        ot_ranges = Reference.range_count m;
        ot_stats = None;
      })

let tracker_tenants policy r =
  replay_per_pid r
    ~make:(fun () -> Tracker.create ~policy ~prov:(Provenance.create ()) ())
    ~event:Tracker.observe
    ~source:(fun t ~pid kind range -> Tracker.taint_source ~kind t ~pid range)
    ~sink:(fun t ~pid kind ranges ->
      ( kind,
        List.exists (fun x -> Tracker.is_tainted t ~pid x) ranges,
        List.sort_uniq String.compare
          (List.concat_map (fun x -> Tracker.origins_of t ~pid x) ranges) ))
    ~result:(fun t ~pid:_ verdicts ->
      {
        ot_verdicts = verdicts;
        ot_bytes = Tracker.current_tainted_bytes t;
        ot_ranges = Tracker.current_ranges t;
        ot_stats = Some (Tracker.stats t);
      })

(* Fresh sources over the case's recordings (or their files). *)
let oracle_sources c paths =
  List.mapi
    (fun i r ->
      let pid = Ingest.tenant_pid i in
      match paths with
      | [] -> Ingest.of_recorded ~pid r
      | _ -> Ingest.of_file ~pid (List.nth paths i))
    c.oc_recs

(* Each source's resident tenants, by offset from its pid. *)
let engine_tenants eng srcs =
  List.map
    (fun (s : Ingest.source) ->
      let base = s.Ingest.src_pid in
      List.filter_map
        (fun pid ->
          if pid < base || pid - base >= 1 lsl 20 then None
          else
            Option.map
              (fun (ts : Engine.tenant_snapshot) ->
                ( pid - base,
                  {
                    ot_verdicts =
                      List.map
                        (fun (v : Engine.verdict) ->
                          (v.Engine.v_kind, v.Engine.v_flagged, v.Engine.v_origins))
                        ts.Engine.ts_verdicts;
                    ot_bytes = ts.Engine.ts_tainted_bytes;
                    ot_ranges = ts.Engine.ts_ranges;
                    ot_stats = Some ts.Engine.ts_stats;
                  } ))
              (Engine.snapshot_tenant eng ~pid))
        (Engine.tenants eng))
    srcs

let oracle_engine_run c paths ~shards ~segment =
  let policy = Policy.make ~ni:c.oc_ni ~nt:c.oc_nt () in
  Engine.with_engine ~shards ~policy ~with_origins:true (fun eng ->
      let srcs = oracle_sources c paths in
      Ingest.run ?segment eng srcs;
      engine_tenants eng srcs)

(* Serve at 3 shards in segments, snapshot after the [oc_cut]-th, and
   serve the rest at 1 shard from the snapshot: restored tenants, fresh
   sources skipped to the snapshot's cursors. *)
let oracle_restored_run c paths =
  let policy = Policy.make ~ni:c.oc_ni ~nt:c.oc_nt () in
  let snap =
    Engine.with_engine ~shards:3 ~policy ~with_origins:true (fun eng ->
        let srcs = oracle_sources c paths in
        let idles = ref 0 and snap = ref None in
        Ingest.run ~segment:c.oc_segment
          ~on_idle:(fun () ->
            incr idles;
            if !idles = c.oc_cut || Option.is_none !snap then
              snap :=
                Some
                  (Snapshot.of_engine
                     ~sources:(Snapshot.source_entries srcs)
                     eng))
          eng srcs;
        Option.get !snap)
  in
  Engine.with_engine ~shards:1 ~policy ~with_origins:true (fun eng ->
      Snapshot.restore_tenants eng snap;
      let srcs = oracle_sources c paths in
      List.iter2
        (fun s (se : Snapshot.source_entry) ->
          Ingest.skip s se.Snapshot.se_cursor)
        srcs snap.Snapshot.sources;
      Ingest.run eng srcs;
      engine_tenants eng srcs)

let oracle_matches c =
  let policy = Policy.make ~ni:c.oc_ni ~nt:c.oc_nt () in
  let paths =
    if c.oc_binary then
      List.map
        (fun r ->
          let path = Tmp_file.path "pift_oracle" ".pift" in
          Trace_io.save ~format:Trace_io.Binary r path;
          path)
        c.oc_recs
    else []
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () ->
      let reference = List.map (reference_tenants policy) c.oc_recs in
      let tracker = List.map (tracker_tenants policy) c.oc_recs in
      let strip (offset, t) =
        ( offset,
          {
            t with
            ot_verdicts = List.map (fun (k, f, _) -> (k, f, [])) t.ot_verdicts;
            ot_stats = None;
          } )
      in
      let runs =
        ( "restored at 1 shard from a 3-shard snapshot",
          oracle_restored_run c paths )
        :: List.concat_map
             (fun shards ->
               List.map
                 (fun segment ->
                   ( Printf.sprintf "%d shard(s)%s" shards
                       (match segment with
                       | None -> ""
                       | Some n -> Printf.sprintf ", segment %d" n),
                     oracle_engine_run c paths ~shards ~segment ))
                 [ None; Some c.oc_segment ])
             [ 1; 3 ]
      in
      if List.map (List.map strip) tracker <> reference then
        Error "tracker <> Reference (verdicts, bytes or ranges)"
      else
        match List.find_opt (fun (_, got) -> got <> tracker) runs with
        | Some (what, _) -> Error ("engine, " ^ what ^ " <> tracker")
        | None -> Ok ())

let test_engine_oracle () =
  Prop.check_gen ~name:"Reference = Tracker = engine" ~count:40
    ~gen:gen_oracle_case
    ~shrink:(fun c ->
      List.map
        (fun recs -> { c with oc_recs = recs })
        (Prop.shrink_candidates c.oc_recs))
    ~to_string:oracle_case_to_string oracle_matches

(* --- block decode ------------------------------------------------------- *)

(* [Trace_io.read_rows] decodes a run of records in one call.  Each case
   runs a sequence of calls on one reader and checks them against the
   per-record reading the fill path made before: [read_row] one record
   at a time, then the bound, the fold ([Row.fold]) and the stops,
   written out here.  The random property also checks whole files
   against the same reading over the recording's own items
   ([Per_event.of_items]), which shares no decoder with the file. *)

type block_call = {
  bc_first : int;  (* rows, not offsets *)
  bc_room : int;
  bc_budget : int;
  bc_bound : int;
  bc_shift : int;
}

let call ?(first = 0) ?(room = 64) ?(budget = 1000) ?(bound = max_int)
    ?(shift = 0) () =
  {
    bc_first = first;
    bc_room = room;
    bc_budget = budget;
    bc_bound = bound;
    bc_shift = shift;
  }

let block_call_to_string c =
  Printf.sprintf
    "{first %d; room %d; budget %d; bound %d; shift %d}" c.bc_first c.bc_room
    c.bc_budget c.bc_bound c.bc_shift

(* What a call returns and leaves: its stop or failure, [bk_next] and
   [bk_budget] after it. *)
type call_result = (Trace_io.stop, string) result * int * int

(* Each record is decoded into the row at [next], as the fill path
   decoded it; a record that folds leaves its data in that free row. *)
let per_record rd rows c : call_result =
  let w = Row.width in
  let next = ref (c.bc_first * w) and budget = ref c.bc_budget in
  let rec go () =
    let o = !next in
    if o >= (c.bc_first + c.bc_room) * w || !budget <= 0 then Trace_io.Full
    else if not (Trace_io.read_row rd rows o) then Trace_io.Ended
    else begin
      rows.(o + 1) <- rows.(o + 1) + c.bc_shift;
      if rows.(o + 2) > c.bc_bound then Trace_io.Past
      else begin
        decr budget;
        if
          rows.(o) = Row.tag_other
          && o > 0
          && Row.fold rows (o - w) ~pid:rows.(o + 1) ~seq:rows.(o + 2)
               ~k:rows.(o + 3)
        then go ()
        else begin
          next := o + w;
          if rows.(o) = Row.tag_item then Trace_io.Marker else go ()
        end
      end
    end
  in
  let stop = try Ok (go ()) with Failure m -> Error m in
  (stop, !next, !budget)

let block_read rd rows c : call_result =
  let w = Row.width and bk = Trace_io.block () in
  bk.Trace_io.bk_rows <- rows;
  bk.bk_next <- c.bc_first * w;
  bk.bk_end <- (c.bc_first + c.bc_room) * w;
  bk.bk_budget <- c.bc_budget;
  bk.bk_bound <- c.bc_bound;
  bk.bk_shift <- c.bc_shift;
  let stop = try Ok (Trace_io.read_rows rd bk) with Failure m -> Error m in
  (stop, bk.bk_next, bk.bk_budget)

let stop_to_string = function
  | Ok Trace_io.Full -> "Full"
  | Ok Trace_io.Past -> "Past"
  | Ok Trace_io.Marker -> "Marker"
  | Ok Trace_io.Ended -> "Ended"
  | Error m -> "failed: " ^ m

(* Per call: its result, the rows of the array (all of them, or after a
   failure those before [bk_next]: the failing record may have written
   part of its row) and the value of a marker it stopped at.  Calls
   stop after a failure or the end of the stream; opening failures are
   the outcome too. *)
type block_trace = {
  bt_open : string option;
  bt_calls : (call_result * int list * Recorded.marker option) list;
}

let block_outcome_of read ?(preset = [||]) open_ calls =
  match open_ () with
  | exception Failure m -> { bt_open = Some m; bt_calls = [] }
  | rd ->
      let w = Row.width in
      let size =
        w
        * List.fold_left
            (fun m c -> max m (c.bc_first + c.bc_room + 1))
            1 calls
      in
      let rows = Array.make (max size (Array.length preset)) (-1) in
      Array.blit preset 0 rows 0 (Array.length preset);
      let rec go acc = function
        | [] -> List.rev acc
        | c :: rest ->
            let ((stop, next, _) as r) = read rd rows c in
            let marker =
              if stop = Ok Trace_io.Marker then Some (Trace_io.row_marker rd)
              else None
            in
            let rows =
              match stop with
              | Error _ -> Array.to_list (Array.sub rows 0 next)
              | Ok _ -> Array.to_list rows
            in
            let acc = (r, rows, marker) :: acc in
            (match stop with
            | Ok (Trace_io.Full | Trace_io.Past | Trace_io.Marker) ->
                go acc rest
            | Ok Trace_io.Ended | Error _ -> List.rev acc)
      in
      let calls = go [] calls in
      Trace_io.close_reader rd;
      { bt_open = None; bt_calls = calls }

let block_outcome read ?preset path calls =
  block_outcome_of read ?preset (fun () -> Trace_io.open_reader path) calls

let block_trace_to_string t =
  match t.bt_open with
  | Some m -> "open failed: " ^ m
  | None ->
      String.concat "; "
        (List.map
           (fun ((stop, next, budget), _, _) ->
             Printf.sprintf "%s next %d budget %d" (stop_to_string stop)
               (next / Row.width) budget)
           t.bt_calls)

(* The block calls' outcome, checked against the per-record reading. *)
let check_block ~what ?preset path calls =
  let want = block_outcome per_record ?preset path calls
  and got = block_outcome block_read ?preset path calls in
  if got <> want then
    Alcotest.failf "%s: read_rows %s, per record %s" what
      (block_trace_to_string got) (block_trace_to_string want);
  List.map
    (fun ((stop, next, budget), rows, _) ->
      (stop, next / Row.width, budget, rows))
    got.bt_calls

let with_trace ?(format = Trace_io.Binary) r f =
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format r path;
      f path)

let formats = [ Trace_io.Binary; Trace_io.Text ]
let loads n = List.init n (fun i -> ev (i + 1) 7 (Pift_trace.Event.Load r8))
let others ?(pid = 7) seqs =
  List.map (fun s -> ev s pid Pift_trace.Event.Other) seqs

(* The row at [r] of a call's rows. *)
let row_at rows r = List.filteri (fun i _ -> i / Row.width = r) rows

let test_block_seq_bound () =
  List.iter
    (fun format ->
      with_trace ~format (counted_recording (loads 10)) (fun path ->
          (match check_block ~what:"bound 5" path [ call ~bound:5 () ] with
          | [ (Ok Trace_io.Past, 5, 995, rows) ] ->
              checki "the record on the bound is placed" 5
                (List.nth (row_at rows 4) 2);
              checki "the first one past it is held" 6
                (List.nth (row_at rows 5) 2)
          | _ -> Alcotest.fail "bound 5: expected Past after 5 rows");
          (match check_block ~what:"bound 0" path [ call ~bound:0 () ] with
          | [ (Ok Trace_io.Past, 0, 1000, _) ] -> ()
          | _ -> Alcotest.fail "bound 0: expected Past at once");
          match
            check_block ~what:"bound 10, then on" path
              [ call ~bound:10 (); call ~first:10 () ]
          with
          | [ (Ok Trace_io.Ended, 10, 990, _) ] -> ()
          | _ -> Alcotest.fail "bound 10: expected the whole stream"))
    formats

let test_block_budget_and_room () =
  List.iter
    (fun format ->
      with_trace ~format (counted_recording (loads 4)) (fun path ->
          match
            check_block ~what:"budget 1" path
              [
                call ~budget:1 ();
                call ~first:1 ~budget:1 ();
                call ~first:2 ~room:1 ();
              ]
          with
          | [
              (Ok Trace_io.Full, 1, 0, _);
              (Ok Trace_io.Full, 2, 0, _);
              (Ok Trace_io.Full, 3, 999, _);
            ] ->
              ()
          | _ -> Alcotest.fail "budget 1 / room 1: one record a call");
      (* Room for one row: the records that fold into the row before
         [first] take no room, the first that does not fold takes it. *)
      with_trace ~format
        (counted_recording
           (others [ 1; 2; 3; 4 ]
           @ [ ev 5 7 (Pift_trace.Event.Load r8) ]
           @ others [ 6 ]))
        (fun path ->
          let preset = [| Row.tag_other; 7; 0; 0; 0; 1 |] in
          match
            check_block ~what:"room 1" ~preset path [ call ~first:1 ~room:1 () ]
          with
          | [ (Ok Trace_io.Full, 2, 995, rows) ] ->
              checkb "four folds, then the load's row" true
                (row_at rows 0 = [ Row.tag_other; 7; 4; 4; 0; 5 ]
                && List.hd (row_at rows 1) = Row.tag_load)
          | _ -> Alcotest.fail "room 1: expected Full after the load"))
    formats

let test_block_marker_in_run () =
  let r =
    counted_recording
      ~markers:[| (3, Recorded.Source { kind = "K"; range = r8 }) |]
      (others [ 1; 2; 3; 4; 5; 6 ])
  in
  List.iter
    (fun format ->
      with_trace ~format r (fun path ->
          match
            check_block ~what:"marker in a run" path
              [ call (); call ~first:2 () ]
          with
          | [
              (Ok Trace_io.Marker, 2, _, first);
              (Ok Trace_io.Ended, 3, _, rows);
            ] ->
              checkb "the run before the marker, then the marker" true
                (row_at first 0 = [ Row.tag_other; 7; 3; 3; 0; 3 ]
                && List.hd (row_at first 1) = Row.tag_item);
              checkb "the run after it starts a row of its own" true
                (row_at rows 2 = [ Row.tag_other; 7; 6; 6; 0; 3 ])
          | _ -> Alcotest.fail "expected Marker, then Ended");
      with_trace ~format r (fun path ->
          checkb "fill = per-item view" true
            (fill_outcome path
            = (let items, failure = read_item_outcome path in
               (fold_rows ~room:fill_room items, failure)));
          (* A copy of the source that counts pid 6 as the recorded main
             pid: its events land one above [src_pid], its marker on
             [src_pid] itself. *)
          let p = Ingest.tenant_pid 0 in
          let s = Ingest.of_file ~pid:p path in
          let rows = fill_calls ~room:8 [ { s with Ingest.src_orig_pid = 6 } ] in
          Ingest.close s;
          checkb "marker rows carry src_pid" true
            (rows
            = [
                [
                  (t_other, p + 1, 3, 3, 3);
                  (Row.tag_item, p, 3, 0, 1);
                  (t_other, p + 1, 6, 6, 3);
                ];
              ])))
    formats

(* The head [Ingest] emits is the row before the call's first: a run
   folds into it when it counts the same engine pid, and not when it is
   another tenant's. *)
let test_block_fold_into_head () =
  let shift = Ingest.tenant_pid 0 - 7 in
  with_trace (counted_recording (others [ 1; 2; 3 ])) (fun path ->
      (match
         check_block ~what:"head row" path
           ~preset:[| Row.tag_other; 7 + shift; 0; 0; 0; 1 |]
           [ call ~first:1 ~shift () ]
       with
      | [ (Ok Trace_io.Ended, 1, _, rows) ] ->
          checkb "the run joins the head row" true
            (row_at rows 0 = [ Row.tag_other; 7 + shift; 3; 3; 0; 4 ])
      | _ -> Alcotest.fail "head row: expected one row");
      match
        check_block ~what:"another tenant's row" path
          ~preset:[| Row.tag_other; Ingest.tenant_pid 1; 0; 0; 0; 1 |]
          [ call ~first:1 ~shift () ]
      with
      | [ (Ok Trace_io.Ended, 2, _, rows) ] ->
          checkb "the run starts its own row" true
            (row_at rows 1 = [ Row.tag_other; 7 + shift; 3; 3; 0; 3 ])
      | _ -> Alcotest.fail "another tenant's row: expected two rows");
  let src i =
    Ingest.of_recorded ~pid:(Ingest.tenant_pid i)
      (counted_recording (others [ 1; 2; 3; 4 ]))
  in
  let a = Ingest.tenant_pid 0 and b = Ingest.tenant_pid 1 in
  checkb "through Ingest.fill: one row per tenant" true
    (fill_calls ~room:8 [ src 0; src 1 ]
    = [ [ (t_other, a, 4, 4, 4); (t_other, b, 4, 4, 4) ] ])

(* A pid outside the tenant's block in the middle of a run that folds:
   refused with the per-item path's message and item number, the rows
   before it delivered. *)
let test_block_pid_outside_in_run () =
  let outside = 7 + (1 lsl 20) in
  let r =
    counted_recording
      (others [ 1; 2; 3 ] @ others ~pid:outside [ 4; 5 ] @ others [ 6; 7 ])
  in
  List.iter
    (fun format ->
      with_trace ~format r (fun path ->
          let rows, failure = fill_outcome path in
          let want_items, want_failure = read_item_outcome path in
          checkb "fill = per-item view" true
            ((rows, failure)
            = (fold_rows ~room:fill_room want_items, want_failure));
          checkb "the run before it delivered" true
            (List.map snd rows = [ 3 ]);
          Alcotest.(check (option string))
            "refusal" (Some
              (Printf.sprintf
                 "Ingest: %s: item 4: event pid %d is outside the tenant's pid \
                  block [7, %d)"
                 path outside outside))
            failure))
    formats

(* A record that fails in the middle of a call: every row before it is
   delivered, and the failure is the per-record reading's. *)
let test_block_failure_mid_call () =
  let r = counted_recording (loads 6 @ others [ 7; 8; 9 ] @ loads 3) in
  with_trace r (fun path ->
      let bytes = read_file path in
      List.iter
        (fun cut ->
          with_tmp ~suffix:".pift" (fun cut_path ->
              Out_channel.with_open_bin cut_path (fun oc ->
                  Out_channel.output_string oc (String.sub bytes 0 cut));
              (match
                 check_block ~what:(Printf.sprintf "cut to %d" cut) cut_path
                   [ call () ]
               with
              | [ (Error m, next, _, _) ] ->
                  checkb "positioned" true (String.sub m 0 10 = "Trace_io: ");
                  checkb "the rows before it delivered" true (next > 0)
              | _ -> Alcotest.fail "expected a failure");
              checkb "fill = per-item view" true
                (fill_outcome cut_path
                = (let items, failure = read_item_outcome cut_path in
                   (fold_rows ~room:fill_room items, failure)))))
        (List.map (fun n -> String.length bytes - n) [ 1; 9; 20 ]))

(* The decode loop frames a record with a one-byte length and reads a
   field below [0x80] itself, leaving the rest to [Wire].  Hand-made
   records with a one-byte length whose fields leave those cases (a
   field running past the payload, trailing bytes, a bad range) fail
   with the record layer's messages, and a well-formed one decodes to
   its values.  Each file is a header (pid 1), a one-byte "other"
   record, the record, and another "other". *)
let test_block_one_byte_records () =
  let other = "\x04\x02\x02\x02\x01" in
  let record_2 msg = "Trace_io: record 2: " ^ msg in
  List.iter
    (fun (record, want) ->
      with_tmp ~suffix:".pift" (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                ("PIFTBIN1\x01x\x01\x00" ^ other ^ record ^ other));
          let got =
            match
              check_block ~what:(String.escaped record) path [ call () ]
            with
            | [ (Error m, 1, _, _) ] -> Error m
            | [ (Ok Trace_io.Ended, 3, _, rows) ] -> Ok (row_at rows 1)
            | _ -> Error "unexpected stop"
          in
          checkb (String.escaped record) true (got = want)))
    [
      ("\x06\x00\x02\x02\x01\x7e\x04", Ok [ Row.tag_load; 1; 2; 2; 63; 4 ]);
      ("\x04\x02\x02\x82\x01", Error (record_2 "truncated record payload"));
      ("\x04\x02\x02\x02\x81", Error (record_2 "truncated record payload"));
      ( "\x05\x02\x02\x02\x01\x00",
        Error (record_2 "trailing bytes in record") );
      ( "\x06\x00\x02\x02\x01\x00\x84",
        Error (record_2 "truncated record payload") );
      ( "\x06\x01\x02\x02\x01\x80\x04",
        Error (record_2 "truncated record payload") );
      ( "\x06\x00\x02\x02\x01\x00\x00",
        Error (record_2 "Range.of_len: non-positive length") );
      ( "\x06\x00\x02\x02\x01\x7f\x7f",
        Error (record_2 "Range.make: negative address") );
    ]

(* Random traces, both formats, some cut or bit-flipped, through random
   sequences of calls: the block decoder = the per-record reading. *)
let gen_block_case rng =
  let range () = Range.of_len (Rng.int rng 256) (1 + Rng.int rng 8) in
  let n = Rng.int_in rng 0 40 in
  let seq = ref 0 in
  let events =
    List.init n (fun _ ->
        seq := !seq + Rng.int_in rng 0 2;
        let pid = if Rng.int rng 5 = 0 then 8 else 7 in
        let access =
          match Rng.int rng 5 with
          | 0 -> Pift_trace.Event.Load (range ())
          | 1 -> Pift_trace.Event.Store (range ())
          | _ -> Pift_trace.Event.Other
        in
        { (ev !seq pid access) with k = Rng.int rng 300 })
  in
  let markers =
    Array.init (Rng.int rng 4) (fun i ->
        let s = Rng.int rng (!seq + 2) in
        if i mod 2 = 0 then (s, Recorded.Source { kind = "K"; range = r8 })
        else (s, Recorded.Sink { kind = "K"; ranges = [ r8 ] }))
  in
  Array.sort compare markers;
  let format = if Rng.bool rng then Trace_io.Binary else Trace_io.Text in
  let mutate =
    match Rng.int rng 4 with
    | 0 -> `Cut (Rng.int rng 1000)
    | 1 -> `Flip (Rng.int rng 8000)
    | _ -> `None
  in
  let bound = ref 0 and first = ref (Rng.int rng 2) in
  let calls =
    List.init (Rng.int_in rng 1 12) (fun _ ->
        bound := !bound + Rng.int rng 6;
        let c =
          call ~first:!first ~room:(Rng.int_in rng 1 5)
            ~budget:(Rng.int_in rng 1 8)
            ~bound:(if Rng.int rng 4 = 0 then max_int else !bound)
            ~shift:(Rng.int rng 3) ()
        in
        first := !first + Rng.int rng 3;
        c)
  in
  (counted_recording ~markers events, format, mutate, calls)

let block_case_to_string (r, format, mutate, calls) =
  Printf.sprintf "%s, %d events, %d markers, %s; calls %s"
    (Trace_io.format_to_string format)
    (Pift_trace.Trace.length r.Recorded.trace)
    (Array.length r.Recorded.markers)
    (match mutate with
    | `Cut n -> Printf.sprintf "cut to %d bytes" n
    | `Flip b -> Printf.sprintf "bit %d flipped" b
    | `None -> "whole")
    (String.concat " " (List.map block_call_to_string calls))

let test_block_property () =
  Prop.check_gen ~name:"block decode = per-record reading" ~count:300
    ~gen:gen_block_case ~shrink:(fun _ -> []) ~to_string:block_case_to_string
    (fun (r, format, mutate, calls) ->
      with_trace ~format r (fun path ->
          let bytes = read_file path in
          let bytes =
            match mutate with
            | `Cut n -> String.sub bytes 0 (min n (String.length bytes))
            | `Flip b when String.length bytes > 0 ->
                flip bytes (b mod (8 * String.length bytes))
            | _ -> bytes
          in
          Tmp_file.write path bytes;
          let preset = [| Row.tag_other; 7; 0; 0; 0; 1 |] in
          let want = block_outcome per_record ~preset path calls
          and got = block_outcome block_read ~preset path calls in
          let recorded () =
            match mutate with
            | `None ->
                let h =
                  {
                    Trace_io.h_name = r.Recorded.name;
                    h_pid = r.pid;
                    h_bytecodes = r.bytecodes;
                  }
                in
                block_outcome_of per_record ~preset
                  (fun () -> Per_event.of_items h (Per_event.items r))
                  calls
            | `Cut _ | `Flip _ -> got
          in
          if got <> want then
            Error
              (Printf.sprintf "read_rows %s, per record %s"
                 (block_trace_to_string got)
                 (block_trace_to_string want))
          else if got <> recorded () then
            Error
              (Printf.sprintf "read_rows %s, the recording's items %s"
                 (block_trace_to_string got)
                 (block_trace_to_string (recorded ())))
          else Ok ()))

(* The block decoder allocates nothing per event record: decoding twice
   the records in 128-row calls costs no more minor words than once, up
   to a constant.  One word per record would be 60 000. *)
let test_block_allocates_nothing () =
  let words n =
    with_trace
      (counted_recording
         (List.init n (fun i ->
              ev (i + 1) 7
                (match i mod 3 with
                | 0 -> Pift_trace.Event.Load (Range.of_len (64 * (i mod 97)) 8)
                | 1 -> Pift_trace.Event.Store (Range.of_len (64 * (i mod 89)) 4)
                | _ -> Pift_trace.Event.Other))))
      (fun path ->
        Trace_io.with_reader path (fun rd ->
            let bk = Trace_io.block ()
            and rows = Array.make (128 * Row.width) 0 in
            bk.Trace_io.bk_rows <- rows;
            let decoded = ref 0 in
            let w =
              minor_words_of (fun () ->
                  let go = ref true in
                  while !go do
                    bk.bk_next <- 0;
                    bk.bk_end <- Array.length rows;
                    bk.bk_budget <- max_int;
                    go := Trace_io.read_rows rd bk <> Trace_io.Ended;
                    decoded := !decoded + (bk.bk_next / Row.width)
                  done)
            in
            checkb "every record decoded" true (!decoded > n / 2);
            w))
  in
  let once = words 60_000 and twice = words 120_000 in
  checkb
    (Printf.sprintf "%.0f minor words for 60k records, %.0f for 120k" once
       twice)
    true
    (twice -. once <= 256.)

let () =
  Alcotest.run "pift service"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo and close" `Quick test_spsc_fifo;
          Alcotest.test_case "ring wraps" `Quick test_spsc_ring_wraps;
          Alcotest.test_case "drop when full" `Quick test_spsc_drop_when_full;
          Alcotest.test_case "blocks when full" `Quick
            test_spsc_blocks_when_full;
          Alcotest.test_case "abort" `Quick test_spsc_abort;
          Alcotest.test_case "push after close" `Quick
            test_spsc_close_rejects_push;
          Alcotest.test_case "close wakes a parked consumer" `Quick
            test_spsc_close_wakes_parked_consumer;
          Alcotest.test_case "watermark wakes a parked consumer" `Quick
            test_spsc_watermark_wakes_consumer;
          Alcotest.test_case "parked producer: drain to half, abort" `Quick
            test_spsc_parked_producer;
          Alcotest.test_case "two-domain stress, capacities 1-64" `Quick
            test_spsc_two_domain_stress;
        ] );
      ( "pool run_job",
        [
          Alcotest.test_case "every worker once" `Quick
            test_run_job_every_worker_once;
          Alcotest.test_case "exception propagates" `Quick
            test_run_job_exception_propagates;
        ] );
      ( "engine determinism",
        [
          Alcotest.test_case "interleaved = isolated, 1 shard" `Quick
            test_differential_shards_1;
          Alcotest.test_case "interleaved = isolated, 2 shards" `Quick
            test_differential_shards_2;
          Alcotest.test_case "interleaved = isolated, 4 shards" `Quick
            test_differential_shards_4;
          Alcotest.test_case "without origins" `Quick
            test_differential_no_origins;
          Alcotest.test_case "blocking backpressure is lossless" `Quick
            test_blocking_backpressure_lossless;
          Alcotest.test_case "drop policy accounting" `Quick
            test_drop_policy_accounting;
        ] );
      ( "column batches",
        [
          Alcotest.test_case "column path = direct tracker per tenant" `Quick
            test_column_path_differential;
          Alcotest.test_case "producer allocates nothing per item" `Quick
            test_producer_allocates_nothing_per_item;
          Alcotest.test_case "fill path: <= 2 words per item" `Quick
            test_fill_alloc_budget;
          Alcotest.test_case "decode + merge alloc budget" `Quick
            test_merge_alloc_budget;
          Alcotest.test_case "drops reported per tenant" `Quick
            test_drop_per_tenant;
          Alcotest.test_case "drained batches release their items" `Quick
            test_drained_batches_release_items;
        ] );
      ( "tenant lifecycle",
        [
          Alcotest.test_case "admin out-of-band ops" `Quick
            test_admin_out_of_band;
          Alcotest.test_case "create validates its config" `Quick
            test_create_validates_config;
          Alcotest.test_case "routing = ((pid / range) mod n + n) mod n"
            `Quick test_routing_formula;
          Alcotest.test_case "block index: a child pid is its own tenant"
            `Quick test_block_index_child_pid;
          Alcotest.test_case "block index: restore into other shard counts"
            `Quick test_block_index_restore_reshard;
          Alcotest.test_case "block index: 130 tenants = isolated" `Quick
            test_block_index_130_tenants;
        ] );
      ( "release_pid",
        [
          Alcotest.test_case "store" `Quick test_store_release_pid;
          Alcotest.test_case "storage" `Quick test_storage_release_pid;
        ] );
      ( "provenance index",
        [
          Alcotest.test_case "scans stay per-pid (1k cold pids)" `Quick
            test_provenance_scans_stay_per_pid;
          Alcotest.test_case "probes follow the tracker's decisions" `Quick
            test_provenance_probes_follow_decisions;
          Alcotest.test_case "lazy probe: a later source or untaint" `Quick
            test_provenance_lazy_probe_source;
          Alcotest.test_case "lazy probe: probes count at opening" `Quick
            test_provenance_lazy_probe_counts;
          Alcotest.test_case "lazy probe: a pending window persists" `Quick
            test_provenance_lazy_probe_persist;
        ] );
      ( "ingest merge",
        [
          Alcotest.test_case "event pid outside the tenant block" `Quick
            test_pid_outside_block;
          Alcotest.test_case "window merge = two-pass scan" `Quick
            test_merge_matches_scan;
          Alcotest.test_case "segmented run cursors = scan" `Quick
            test_run_segment_cursors;
          Alcotest.test_case "resume from any cursors = rest of the run"
            `Quick test_resume_continues_run;
          Alcotest.test_case "tenant switches <= n * (windows + 1)" `Quick
            test_tenant_switch_bound;
        ] );
      ( "fill path",
        [
          Alcotest.test_case "fill path = per-item view" `Quick
            test_fill_matches_items;
        ] );
      ( "counted rows",
        [
          Alcotest.test_case "a full batch splits a run" `Quick
            test_fold_batch_room;
          Alcotest.test_case "window boundaries" `Quick test_fold_window_boundary;
          Alcotest.test_case "a pid change or a marker ends a run" `Quick
            test_fold_pid_change;
          Alcotest.test_case "segment budgets count items" `Quick
            test_fold_segment_budget;
          Alcotest.test_case "a fault inside a counted row" `Quick
            test_fold_fault_inside_row;
          Alcotest.test_case "drops count items" `Quick
            test_fold_drop_counts_items;
          Alcotest.test_case "every reader writes counts of 1" `Quick
            test_fold_readers_count_one;
        ] );
      ( "engine oracle",
        [
          Alcotest.test_case "Reference = Tracker = engine, 1 and 3 shards"
            `Quick test_engine_oracle;
        ] );
      ( "streaming readers",
        [
          Alcotest.test_case "reader = load, both formats" `Quick
            test_reader_matches_load;
          Alcotest.test_case "records over 64 KiB" `Quick
            test_reader_oversized_records;
          Alcotest.test_case "decoder mutations: fill = read_item" `Quick
            test_decoder_mutations;
          Alcotest.test_case "truncated binary positioned error" `Quick
            test_truncated_binary_positioned_error;
          Alcotest.test_case "binary trace: 10-byte varint refused" `Quick
            test_binary_ten_byte_varint;
        ] );
      ( "block decode",
        [
          Alcotest.test_case "block decode = per-record reading" `Quick
            test_block_property;
          Alcotest.test_case "a seq bound on a record" `Quick
            test_block_seq_bound;
          Alcotest.test_case "budget of 1, room of 1" `Quick
            test_block_budget_and_room;
          Alcotest.test_case "a marker inside a non-memory run" `Quick
            test_block_marker_in_run;
          Alcotest.test_case "fold into the head row, not another tenant's"
            `Quick test_block_fold_into_head;
          Alcotest.test_case "pid outside the block inside a run" `Quick
            test_block_pid_outside_in_run;
          Alcotest.test_case "a failure mid-call delivers the rows before it"
            `Quick test_block_failure_mid_call;
          Alcotest.test_case "one-byte records: values and messages" `Quick
            test_block_one_byte_records;
          Alcotest.test_case "allocates nothing per event record" `Quick
            test_block_allocates_nothing;
        ] );
    ]
