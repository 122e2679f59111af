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

let test_spsc_fifo () =
  let q = Spsc.create ~capacity:4 () in
  for i = 0 to 3 do
    match Spsc.push q ~drop_when_full:false [| i; i + 10 |] with
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
        drained := !drained @ Array.to_list b;
        drain ()
    | None -> ()
  in
  drain ();
  checkb "fifo order" true
    (!drained = [ 0; 10; 1; 11; 2; 12; 3; 13 ]);
  checkb "pop after drain stays None" true (Spsc.pop q = None)

let test_spsc_drop_when_full () =
  let q = Spsc.create ~capacity:1 () in
  checkb "first push fits" true
    (Spsc.push q ~drop_when_full:true [| 1 |] = Spsc.Pushed);
  checkb "second push drops" true
    (Spsc.push q ~drop_when_full:true [| 2; 3 |] = Spsc.Dropped);
  checki "dropped counts items" 2 (Spsc.dropped q);
  (* the queued batch is still intact *)
  checkb "survivor delivered" true (Spsc.pop q = Some [| 1 |])

let test_spsc_abort () =
  let q = Spsc.create ~capacity:1 () in
  ignore (Spsc.push q ~drop_when_full:false [| 1 |]);
  Spsc.abort q;
  (* a blocked producer would have been woken; pushes now drop *)
  checkb "push after abort drops" true
    (Spsc.push q ~drop_when_full:false [| 2 |] = Spsc.Dropped);
  checkb "pop after abort is None" true (Spsc.pop q = None);
  checki "aborted pushes counted" 1 (Spsc.dropped q)

let test_spsc_close_rejects_push () =
  let q = Spsc.create ~capacity:1 () in
  Spsc.close q;
  checkb "push after close raises" true
    (try
       ignore (Spsc.push q ~drop_when_full:false [| 1 |]);
       false
     with Invalid_argument _ -> true)

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

(* --- tenant lifecycle ----------------------------------------------------- *)

(* Evict one of two tenants mid-stream (in-band I_evict): its store,
   provenance and window state must be released, the shard occupancy
   must fall back to the surviving tenant's baseline, and a re-ingested
   tenant under the same pid must start clean. *)
let test_evict_mid_stream () =
  let recs = Lazy.force recordings in
  let r0 = List.nth recs 0 and r1 = List.nth recs 1 in
  let policy = Policy.default in
  Engine.with_engine ~shards:2 ~policy ~with_origins:true (fun eng ->
      let pid0 = Ingest.tenant_pid 0 and pid1 = Ingest.tenant_pid 1 in
      let s0 = Ingest.of_recorded ~pid:pid0 r0 in
      let s1 = Ingest.of_recorded ~pid:pid1 r1 in
      (* interleave both tenants fully, then evict tenant 0 in-band *)
      let merged = Ingest.merge [ s0; s1 ] in
      let evicted = ref false in
      let stream () =
        match merged () with
        | Some _ as it -> it
        | None ->
            if !evicted then None
            else begin
              evicted := true;
              Some (Engine.I_evict { pid = pid0 })
            end
      in
      Engine.register_tenant eng ~pid:pid0 ~name:r0.Recorded.name ();
      Engine.register_tenant eng ~pid:pid1 ~name:r1.Recorded.name ();
      Engine.run eng stream;
      checkb "tenant 0 gone" true (Engine.snapshot_tenant eng ~pid:pid0 = None);
      checkb "tenant 1 resident" true
        (Engine.snapshot_tenant eng ~pid:pid1 <> None);
      checki "one eviction" 1 (Engine.stats eng).Engine.st_evictions;
      (* occupancy = surviving tenant's live bytes, exactly *)
      let ts1 = Option.get (Engine.snapshot_tenant eng ~pid:pid1) in
      checki "gauge at survivor baseline" ts1.Engine.ts_tainted_bytes
        (Engine.stats eng).Engine.st_tainted_bytes;
      (* the pid starts clean: re-ingesting r0 under pid0 must match a
         fresh isolated replay, untainted by the evicted incarnation *)
      Ingest.run eng [ Ingest.of_recorded ~pid:pid0 r0 ];
      let rp0 = Recorded.replay ~policy ~with_origins:true r0 in
      let ts0 = Option.get (Engine.snapshot_tenant eng ~pid:pid0) in
      checkb "re-registered pid replays clean" true
        (engine_verdicts ts0 ~with_origins:true
        = norm_verdicts rp0 ~with_origins:true);
      checkb "stats clean too" true
        (stats_equal ts0.Engine.ts_stats rp0.Recorded.stats))

let test_admin_out_of_band () =
  Engine.with_engine ~shards:2 ~with_origins:true (fun eng ->
      let pid = Ingest.tenant_pid 3 in
      Engine.register_tenant eng ~pid ~name:"manual" ();
      Engine.register_source eng ~pid ~kind:"IMEI"
        (Range.of_len 100 16);
      let v = Engine.query_sink eng ~pid [ Range.of_len 104 4 ] in
      checkb "sink flagged" true v.Engine.v_flagged;
      checkb "origins" true (v.Engine.v_origins = [ "IMEI" ]);
      (* query_sink is pure: no verdict was logged *)
      let ts = Option.get (Engine.snapshot_tenant eng ~pid) in
      checks "name" "manual" ts.Engine.ts_name;
      checki "no logged verdicts" 0 (List.length ts.Engine.ts_verdicts);
      checki "live bytes" 16 ts.Engine.ts_tainted_bytes;
      Engine.untaint_range eng ~pid (Range.of_len 100 16);
      let v2 = Engine.query_sink eng ~pid [ Range.of_len 104 4 ] in
      checkb "clean after untaint" false v2.Engine.v_flagged;
      checkb "evict reports residency" true (Engine.evict_tenant eng ~pid);
      checkb "second evict is false" false (Engine.evict_tenant eng ~pid))

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

(* --- occupancy invariant against a recount -------------------------------- *)

(* Random engine-op sequences over the four shared recordings (tenant
   [i] = [Ingest.tenant_pid i]).  After every step the engine's running
   occupancy must equal a recount from the tenants' live bytes, in total
   and per shard. *)
type engine_op =
  | Ingest_segments of { tenant : int; segment : int }
      (** replay the tenant's recording, [segment] items per run *)
  | Evict_in_band of int
  | Untaint of int * Range.t
  | Source of int * Range.t
  | Persist_evict_restore of int

let engine_op_to_string = function
  | Ingest_segments { tenant; segment } ->
      Printf.sprintf "ingest %d/%d" tenant segment
  | Evict_in_band i -> Printf.sprintf "I_evict %d" i
  | Untaint (i, r) -> Printf.sprintf "untaint %d %s" i (Range.to_string r)
  | Source (i, r) -> Printf.sprintf "source %d %s" i (Range.to_string r)
  | Persist_evict_restore i -> Printf.sprintf "persist/evict/restore %d" i

(* Untaint and source ranges: a recorded source range (hits live
   taint), a small range near it, or everything. *)
let gen_engine_range rng source_ranges =
  match Rng.int rng 3 with
  | 0 -> List.nth source_ranges (Rng.int rng (List.length source_ranges))
  | 1 ->
      let r = List.nth source_ranges (Rng.int rng (List.length source_ranges)) in
      Range.of_len (Range.lo r + Rng.int_in rng (-8) 8) (Rng.int_in rng 1 24)
  | _ -> Range.make 0 (1 lsl 48)

let gen_engine_op rng ~tenants source_ranges =
  let tenant = Rng.int rng tenants in
  match Rng.int rng 9 with
  | 0 | 1 | 2 ->
      Ingest_segments { tenant; segment = Rng.int_in rng 16 400 }
  | 3 -> Evict_in_band tenant
  | 4 | 5 -> Untaint (tenant, gen_engine_range rng source_ranges)
  | 6 -> Source (tenant, gen_engine_range rng source_ranges)
  | _ -> Persist_evict_restore tenant

exception Occupancy_mismatch of string

let check_occupancy eng =
  let st = Engine.stats eng in
  let tenants =
    List.map
      (fun pid -> Option.get (Engine.snapshot_tenant eng ~pid))
      (Engine.tenants eng)
  in
  let recount keep =
    List.fold_left
      (fun acc (ts : Engine.tenant_snapshot) ->
        if keep ts then acc + ts.Engine.ts_tainted_bytes else acc)
      0 tenants
  in
  let expect what got want =
    if got <> want then
      raise
        (Occupancy_mismatch
           (Printf.sprintf "%s %d, tenants sum to %d" what got want))
  in
  expect "st_tainted_bytes" st.Engine.st_tainted_bytes (recount (fun _ -> true));
  List.iter
    (fun (ss : Engine.shard_stats) ->
      expect
        (Printf.sprintf "shard %d ss_tainted_bytes" ss.Engine.ss_shard)
        ss.Engine.ss_tainted_bytes
        (recount (fun ts -> ts.Engine.ts_shard = ss.Engine.ss_shard)))
    st.Engine.st_shards

let run_engine_op eng recs op =
  let pid i = Ingest.tenant_pid i in
  match op with
  | Ingest_segments { tenant; segment } ->
      Ingest.run ~segment
        ~on_idle:(fun () -> check_occupancy eng)
        eng
        [ Ingest.of_recorded ~pid:(pid tenant) (List.nth recs tenant) ]
  | Evict_in_band i ->
      let sent = ref false in
      Engine.run eng (fun () ->
          if !sent then None
          else begin
            sent := true;
            Some (Engine.I_evict { pid = pid i })
          end)
  | Untaint (i, r) -> Engine.untaint_range eng ~pid:(pid i) r
  | Source (i, r) -> Engine.register_source eng ~pid:(pid i) r
  | Persist_evict_restore i -> (
      match Engine.persist_tenant eng ~pid:(pid i) with
      | None -> ()
      | Some tp ->
          ignore (Engine.evict_tenant eng ~pid:(pid i));
          check_occupancy eng;
          Engine.restore_tenant eng tp)

let test_occupancy_invariant () =
  let recs = Lazy.force recordings in
  let source_ranges =
    List.concat_map
      (fun (r : Recorded.t) ->
        Array.to_list r.Recorded.markers
        |> List.filter_map (function
             | _, Recorded.Source { range; _ } -> Some range
             | _ -> None))
      recs
  in
  List.iter
    (fun shards ->
      Prop.check_gen
        ~name:(Printf.sprintf "occupancy = recount, %d shard(s)" shards)
        ~count:12
        ~gen:(fun rng ->
          List.init 10 (fun _ ->
              gen_engine_op rng ~tenants:(List.length recs) source_ranges))
        ~shrink:Prop.shrink_candidates
        ~to_string:(fun ops ->
          String.concat "; " (List.map engine_op_to_string ops))
        (fun ops ->
          Engine.with_engine ~shards ~with_origins:true ~queue_capacity:2
            ~batch:16 (fun eng ->
              match
                List.iter
                  (fun op ->
                    run_engine_op eng recs op;
                    check_occupancy eng)
                  ops
              with
              | () -> Ok ()
              | exception Occupancy_mismatch msg -> Error msg)))
    [ 1; 2; 4 ]

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

let test_tracker_release_pid () =
  let prov = Provenance.create () in
  let tracker = Tracker.create ~prov () in
  Tracker.taint_source ~kind:"IMEI" tracker ~pid:7 (Range.of_len 0 8);
  Tracker.taint_source ~kind:"GPS" tracker ~pid:8 (Range.of_len 64 4);
  checki "live bytes" 12 (Tracker.current_tainted_bytes tracker);
  Tracker.release_pid tracker ~pid:7;
  checki "bytes after release" 4 (Tracker.current_tainted_bytes tracker);
  checki "ranges after release" 1 (Tracker.current_ranges tracker);
  checkb "origins gone" true (Tracker.origins_of tracker ~pid:7 (Range.of_len 0 8) = []);
  checkb "other pid keeps origins" true
    (Tracker.origins_of tracker ~pid:8 (Range.of_len 64 4) = [ "GPS" ]);
  (* peaks are high-water marks and survive the release *)
  checki "peak bytes" 12 (Tracker.stats tracker).Tracker.max_tainted_bytes

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

let test_provenance_release_pid () =
  let p = Provenance.create () in
  Provenance.taint_source p ~pid:1 ~label:"a" (Range.of_len 0 8);
  Provenance.taint_source p ~pid:2 ~label:"b" (Range.of_len 0 8);
  Provenance.release_pid p ~pid:1;
  checkb "pid 1 labels gone" true
    (Provenance.labels_of p ~pid:1 (Range.of_len 0 8) = []);
  checkb "pid 2 intact" true
    (Provenance.labels_of p ~pid:2 (Range.of_len 0 8) = [ "b" ]);
  checki "pid 1 bytes" 0 (Provenance.tainted_bytes p ~label:"a")

(* --- ingest merge order ---------------------------------------------------- *)

(* Synthetic sources for the merge-order property.  Seqs come from a
   small range so ties across sources are common, and a marker often
   reuses the seq of the event before it, as recorded markers do. *)
type synth_item = S_event of int | S_source of int | S_sink of int

let synth_item_to_string = function
  | S_event s -> Printf.sprintf "e%d" s
  | S_source s -> Printf.sprintf "src%d" s
  | S_sink s -> Printf.sprintf "snk%d" s

let gen_synth_source rng =
  let len = if Rng.int rng 5 = 0 then 0 else Rng.int_in rng 1 20 in
  let last = ref (Rng.int rng 8) in
  List.init len (fun _ ->
      match Rng.int rng 6 with
      | 0 -> S_source !last
      | 1 -> S_sink !last
      | _ ->
          last := Rng.int rng 8;
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
          insn = Pift_arm.Insn.Nop;
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
      let rest = ref (List.mapi (recorded_of_synth i) items) in
      {
        Ingest.src_name = Printf.sprintf "synth%d" i;
        src_path = None;
        src_pid = Ingest.tenant_pid i;
        src_orig_pid = synth_orig_pid;
        src_next =
          (fun () ->
            log := i :: !log;
            match !rest with
            | [] -> None
            | it :: tl ->
                rest := tl;
                Some it);
        src_close = ignore;
        src_emitted = 0;
      })
    specs

(* The oracle: the two-pass scan [Ingest.merge] used before the heap.
   Each pull refills every live source without a head, in index order,
   then emits the head with the smallest (seq, index). *)
let scan_merge (srcs : Ingest.source array) =
  let n = Array.length srcs in
  let heads = Array.make n None in
  let live = Array.make n true in
  let item_seq = function
    | Recorded.Item_event e -> e.Pift_trace.Event.seq
    | Recorded.Item_marker (seq, _) -> seq
  in
  fun () ->
    for i = 0 to n - 1 do
      if live.(i) && heads.(i) = None then
        match srcs.(i).Ingest.src_next () with
        | Some it -> heads.(i) <- Some it
        | None -> live.(i) <- false
    done;
    let best = ref (-1) and best_seq = ref max_int in
    for i = 0 to n - 1 do
      match heads.(i) with
      | Some it when !best < 0 || item_seq it < !best_seq ->
          best := i;
          best_seq := item_seq it
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
  let heap_log = ref [] and scan_log = ref [] in
  let heap_srcs = Array.of_list (synth_sources specs heap_log) in
  let scan_srcs = Array.of_list (synth_sources specs scan_log) in
  let heap = Ingest.merge (Array.to_list heap_srcs) in
  let scan = scan_merge scan_srcs in
  let rec pull k =
    heap_log := [];
    scan_log := [];
    let got = heap () and want = scan () in
    if got <> want then Error (Printf.sprintf "pull %d: emitted items differ" k)
    else if !heap_log <> !scan_log then
      Error
        (Printf.sprintf "pull %d: src_next calls [%s], scan made [%s]" k
           (String.concat " " (List.rev_map string_of_int !heap_log))
           (String.concat " " (List.rev_map string_of_int !scan_log)))
    else if cursors heap_srcs <> cursors scan_srcs then
      Error (Printf.sprintf "pull %d: cursors differ" k)
    else if got = None then Ok ()
    else pull (k + 1)
  in
  pull 1

let test_merge_matches_scan () =
  Prop.check_gen ~name:"heap merge = two-pass scan" ~count:150
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

(* --- streaming trace readers (satellite) ----------------------------------- *)

let with_tmp ~suffix f =
  let path = Filename.temp_file "pift_service_test" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

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

let items_of_recording r =
  let next = Recorded.items r in
  let acc = ref [] in
  let rec go () =
    match next () with
    | Some it ->
        acc := it :: !acc;
        go ()
    | None -> ()
  in
  go ();
  List.rev !acc

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
  let seq =
    (Pift_trace.Trace.get r.Recorded.trace
       (Pift_trace.Trace.length r.Recorded.trace - 1))
      .Pift_trace.Event.seq
  in
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

let () =
  Alcotest.run "pift service"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo and close" `Quick test_spsc_fifo;
          Alcotest.test_case "drop when full" `Quick test_spsc_drop_when_full;
          Alcotest.test_case "abort" `Quick test_spsc_abort;
          Alcotest.test_case "push after close" `Quick
            test_spsc_close_rejects_push;
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
      ( "tenant lifecycle",
        [
          Alcotest.test_case "evict mid-stream" `Quick test_evict_mid_stream;
          Alcotest.test_case "admin out-of-band ops" `Quick
            test_admin_out_of_band;
          Alcotest.test_case "create validates its config" `Quick
            test_create_validates_config;
          Alcotest.test_case "occupancy = recount after every step" `Quick
            test_occupancy_invariant;
        ] );
      ( "release_pid",
        [
          Alcotest.test_case "store" `Quick test_store_release_pid;
          Alcotest.test_case "storage" `Quick test_storage_release_pid;
          Alcotest.test_case "tracker" `Quick test_tracker_release_pid;
        ] );
      ( "provenance index",
        [
          Alcotest.test_case "scans stay per-pid (1k cold pids)" `Quick
            test_provenance_scans_stay_per_pid;
          Alcotest.test_case "release_pid" `Quick test_provenance_release_pid;
        ] );
      ( "ingest merge",
        [
          Alcotest.test_case "heap merge = two-pass scan" `Quick
            test_merge_matches_scan;
          Alcotest.test_case "segmented run cursors = scan" `Quick
            test_run_segment_cursors;
        ] );
      ( "streaming readers",
        [
          Alcotest.test_case "reader = load, both formats" `Quick
            test_reader_matches_load;
          Alcotest.test_case "records over 64 KiB" `Quick
            test_reader_oversized_records;
          Alcotest.test_case "truncated binary positioned error" `Quick
            test_truncated_binary_positioned_error;
        ] );
    ]
