(* Differential property suite for the taint store.

   Store_flat (the imperative sorted interval array every tracker,
   range-cache secondary store, provenance sidecar and full-DIFT
   baseline runs on) must be observationally identical to
   Store_bytemap (the bit-per-byte oracle).  Every case drives one
   random adversarial op sequence (see prop.ml) through both and
   compares the full observable state after every single op; a
   divergence is shrunk to a minimal op sequence and printed with the
   replay seed.

   50 cases x 250 ops plus 10 x 1000 = 22,500 ops per run, well past
   the 10k floor.  The store-level conventions run against both
   [Store.create ()] and the bytemap-backed [Prop.bytemap_store ()],
   and the end-to-end test replays a DroidBench accuracy sweep against
   an independent Range_set store and byte-compares the output. *)

module Range = Pift_util.Range
module Store_flat = Pift_core.Store_flat
module Store = Pift_core.Store

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ranges_to_string rs =
  "[" ^ String.concat "; " (List.map Range.to_string rs) ^ "]"

let state_to_string ~bytes ~count ~ranges =
  Printf.sprintf "bytes=%d count=%d ranges=%s" bytes count
    (ranges_to_string ranges)

(* --- the differential property ----------------------------------------- *)

(* Fold the sequence through both sets at once; after each op the
   oracle (trivially correct byte-level semantics) and the flat set
   must report the same overlap verdict, tainted-byte total, range
   count, and sorted canonical range list. *)
let differential ops =
  let flat = Store_flat.create () and oracle = Store_bytemap.create () in
  let verdict_to_string = function
    | Some b -> string_of_bool b
    | None -> "-"
  in
  let exception Diverged of string in
  try
    List.iteri
      (fun i op ->
        let got, want =
          match op with
          | Prop.Add r ->
              Store_flat.add flat r;
              Store_bytemap.add oracle r;
              (None, None)
          | Prop.Remove r ->
              Store_flat.remove flat r;
              Store_bytemap.remove oracle r;
              (None, None)
          | Prop.Overlaps r ->
              ( Some (Store_flat.mem_overlap flat r),
                Some (Store_bytemap.mem_overlap oracle r) )
        in
        if got <> want then
          raise
            (Diverged
               (Printf.sprintf "op %d (%s): flat answered %s, oracle %s" i
                  (Prop.op_to_string op) (verdict_to_string got)
                  (verdict_to_string want)));
        let got =
          state_to_string ~bytes:(Store_flat.total_bytes flat)
            ~count:(Store_flat.cardinal flat) ~ranges:(Store_flat.ranges flat)
        and want =
          state_to_string
            ~bytes:(Store_bytemap.total_bytes oracle)
            ~count:(Store_bytemap.cardinal oracle)
            ~ranges:(Store_bytemap.ranges oracle)
        in
        if not (String.equal got want) then
          raise
            (Diverged
               (Printf.sprintf
                  "op %d (%s): flat state diverged@.  flat: %s@.  oracle: %s"
                  i (Prop.op_to_string op) got want)))
      ops;
    Ok ()
  with Diverged msg -> Error msg

let test_differential () =
  Prop.check ~name:"flat agrees with bytemap" ~count:50 ~len:250 differential

(* A second pass at a coarser granularity: longer sequences, fewer
   cases, still deterministic from the same seed. *)
let test_differential_long () =
  Prop.check ~name:"flat agrees with bytemap (long)" ~count:10 ~len:1000
    differential

(* --- store-level conventions, production store and oracle -------------- *)

(* Every convention below holds for the production store and for the
   bytemap oracle behind the same [Store.t] record. *)
let stores = [ ("flat", Store.create); ("bytemap", Prop.bytemap_store) ]

let each_store f =
  List.iter (fun (impl, create) -> f (fun s -> impl ^ ": " ^ s) create) stores

(* [hi] is the last tainted byte.  Two ranges meeting exactly at hi+1
   must coalesce into one canonical range; a single untainted byte
   between them must keep them separate.  A half-open drift flips one
   of these. *)
let test_closed_interval_adjacency () =
  each_store (fun name create ->
      let store = create () in
      store.Store.add ~pid:1 (Range.make 0 15);
      store.Store.add ~pid:1 (Range.make 16 31);
      (* meets at hi + 1 *)
      checki (name "adjacent adds coalesce") 1 (store.Store.range_count ());
      checki (name "coalesced bytes") 32 (store.Store.tainted_bytes ());
      checkb (name "single canonical range") true
        (store.Store.ranges ~pid:1 = [ Range.make 0 31 ]);
      store.Store.add ~pid:1 (Range.make 33 40);
      (* byte 32 stays clean: no coalesce across the gap *)
      checki (name "one-byte gap keeps ranges apart") 2
        (store.Store.range_count ());
      checkb (name "gap byte clean") false
        (store.Store.overlaps ~pid:1 (Range.byte 32));
      checkb (name "last byte tainted") true
        (store.Store.overlaps ~pid:1 (Range.byte 40));
      checkb (name "past-the-end byte clean") false
        (store.Store.overlaps ~pid:1 (Range.byte 41));
      store.Store.remove ~pid:1 (Range.make 10 20);
      checkb (name "middle cut leaves closed stubs") true
        (store.Store.ranges ~pid:1
        = [ Range.make 0 9; Range.make 21 31; Range.make 33 40 ]))

let test_store_per_pid_isolation () =
  each_store (fun name create ->
      let store = create () in
      store.Store.add ~pid:1 (Range.make 0 15);
      store.Store.add ~pid:2 (Range.make 8 23);
      checkb (name "pid 1 sees its range") true
        (store.Store.overlaps ~pid:1 (Range.make 12 30));
      checkb (name "pid 1 blind past its range") false
        (store.Store.overlaps ~pid:1 (Range.make 16 30));
      checkb (name "pid 2 blind below its range") false
        (store.Store.overlaps ~pid:2 (Range.make 0 7));
      checki (name "bytes sum across pids") 32 (store.Store.tainted_bytes ());
      checki (name "counts sum across pids") 2 (store.Store.range_count ());
      store.Store.remove ~pid:1 (Range.make 0 15);
      checki (name "remove only touches its pid") 16
        (store.Store.tainted_bytes ());
      checkb (name "pid 2 unaffected") true
        (store.Store.overlaps ~pid:2 (Range.byte 8)))

(* Read paths must be pure: querying a PID the store has never seen
   must not materialise a set for it (the old create allocated one on
   every overlaps/ranges call, growing the table and — with fold-based
   totals — the cost of every later metrics read). *)
let test_store_read_purity () =
  each_store (fun name create ->
      let store = create () in
      store.Store.add ~pid:1 (Range.make 0 7);
      checkb (name "fresh pid sees nothing") false
        (store.Store.overlaps ~pid:99 (Range.make 0 1000));
      checkb (name "fresh pid has no ranges") true
        (store.Store.ranges ~pid:99 = []);
      checki (name "range_count unchanged by reads") 1
        (store.Store.range_count ());
      checki (name "tainted_bytes unchanged by reads") 8
        (store.Store.tainted_bytes ());
      let fresh = create () in
      ignore (fresh.Store.overlaps ~pid:7 (Range.byte 0));
      ignore (fresh.Store.ranges ~pid:7);
      ignore (fresh.Store.overlaps ~pid:8 (Range.byte 0));
      checki (name "fresh store still empty after queries") 0
        (fresh.Store.range_count ()))

(* The store keeps the last pid it touched and that pid's set beside
   its table.  Switching pids (A, B, A) must re-resolve the cache;
   releasing the cached pid must empty it, so the pid reads clean and
   a re-add starts from nothing; and a query of an unseen pid right
   after a cache hit must stay pure — it allocates no set (so the flat
   store allocates nothing at all) and leaves the totals alone. *)
let test_store_pid_cache () =
  each_store (fun name create ->
      let store = create () in
      let a = 1 and b = 2 in
      store.Store.add ~pid:a (Range.make 0 7);
      store.Store.add ~pid:b (Range.make 100 107);
      store.Store.add ~pid:a (Range.make 8 15);
      checkb (name "A after B sees its own range") true
        (store.Store.ranges ~pid:a = [ Range.make 0 15 ]);
      checkb (name "B untouched by A's add") true
        (store.Store.ranges ~pid:b = [ Range.make 100 107 ]);
      checkb (name "A blind to B's range") false
        (store.Store.overlaps ~pid:a (Range.make 100 107));
      checkb (name "A hit") true (store.Store.overlaps ~pid:a (Range.byte 3));
      store.Store.release_pid ~pid:a;
      checkb (name "released cached pid reads clean") false
        (store.Store.overlaps ~pid:a (Range.make 0 15));
      checkb (name "released cached pid has no ranges") true
        (store.Store.ranges ~pid:a = []);
      checki (name "release folds A out of the bytes") 8
        (store.Store.tainted_bytes ());
      store.Store.add ~pid:a (Range.make 40 43);
      checkb (name "re-add starts fresh") true
        (store.Store.ranges ~pid:a = [ Range.make 40 43 ]);
      checki (name "re-add counts once") 2 (store.Store.range_count ());
      checkb (name "cache hit before the unseen query") true
        (store.Store.overlaps ~pid:a (Range.byte 40));
      checkb (name "unseen pid after a hit") false
        (store.Store.overlaps ~pid:99 (Range.make 0 1000));
      checkb (name "unseen pid has no ranges") true
        (store.Store.ranges ~pid:99 = []);
      checki (name "range_count untouched") 2 (store.Store.range_count ());
      checki (name "tainted_bytes untouched") 12 (store.Store.tainted_bytes ());
      checkb (name "dump lists only A and B") true
        (List.map fst (store.Store.dump ()) = [ a; b ]);
      checkb (name "A still hits after the unseen query") true
        (store.Store.overlaps ~pid:a (Range.byte 43)));
  let store = Store.create () in
  store.Store.add ~pid:1 (Range.make 0 7);
  let probe = Range.make 0 1000 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let hit () = ignore (store.Store.overlaps ~pid:1 probe) in
  let unseen () = ignore (store.Store.overlaps ~pid:99 probe) in
  hit ();
  checkb "flat: a cache hit allocates nothing" true (words hit = 0.);
  hit ();
  checkb "flat: an unseen pid after a hit allocates no set" true
    (words unseen = 0.)

(* The production store's totals are tracked incrementally (per-op
   deltas), not re-summed over every PID; after every step they must
   equal the from-scratch sums and the oracle's re-summed totals, and
   both stores must hold the same per-pid ranges and dump, through
   coalescing adds, splitting removes, no-op removes on untouched PIDs
   and pid release. *)
let test_store_incremental_totals () =
  let pids = [ 1; 2; 3 ] in
  let store = Store.create () and oracle = Prop.bytemap_store () in
  let recount () =
    List.fold_left
      (fun acc pid -> acc + List.length (store.Store.ranges ~pid))
      0 pids
  in
  let rebytes () =
    List.fold_left
      (fun acc pid ->
        List.fold_left
          (fun a r -> a + Range.length r)
          acc (store.Store.ranges ~pid))
      0 pids
  in
  let steps =
    [
      ("add", 1, Range.make 0 15, `Add);
      ("overlapping add coalesces", 1, Range.make 8 23, `Add);
      ("second pid", 2, Range.make 100 131, `Add);
      ("adjacent add coalesces", 1, Range.make 24 31, `Add);
      ("splitting remove", 1, Range.make 10 20, `Remove);
      ("no-op remove on fresh pid", 3, Range.make 0 7, `Remove);
      ("single byte", 3, Range.byte 5, `Add);
      ("release", 3, Range.byte 0, `Release);
      ("re-add after release", 3, Range.make 40 47, `Add);
      ("overshooting remove clears", 2, Range.make 90 200, `Remove);
      ("full clear", 1, Range.make 0 31, `Remove);
    ]
  in
  List.iter
    (fun (label, pid, r, op) ->
      List.iter
        (fun (s : Store.t) ->
          match op with
          | `Add -> s.Store.add ~pid r
          | `Remove -> s.Store.remove ~pid r
          | `Release -> s.Store.release_pid ~pid)
        [ store; oracle ];
      checki (label ^ ": count matches recount") (recount ())
        (store.Store.range_count ());
      checki (label ^ ": bytes match recount") (rebytes ())
        (store.Store.tainted_bytes ());
      checki (label ^ ": count matches oracle") (oracle.Store.range_count ())
        (store.Store.range_count ());
      checki (label ^ ": bytes match oracle") (oracle.Store.tainted_bytes ())
        (store.Store.tainted_bytes ());
      List.iter
        (fun pid ->
          checkb
            (Printf.sprintf "%s: pid %d ranges match oracle" label pid)
            true
            (store.Store.ranges ~pid = oracle.Store.ranges ~pid))
        pids;
      checkb (label ^ ": dump matches oracle") true
        (store.Store.dump () = oracle.Store.dump ()))
    steps

(* --- end-to-end: DroidBench sweep against an independent store ---------- *)

(* Real traces taint addresses far above the bytemap's comfortable
   range, so the end-to-end oracle is a persistent Range_set per pid —
   a separate implementation with its own per-byte differential in
   test_core. *)
let range_set_store () : Store.t =
  let module RS = Range_set in
  let sets : (int, RS.t) Hashtbl.t = Hashtbl.create 4 in
  let get pid = Option.value (Hashtbl.find_opt sets pid) ~default:RS.empty in
  let sum f = Hashtbl.fold (fun _ s acc -> acc + f s) sets 0 in
  {
    add = (fun ~pid r -> Hashtbl.replace sets pid (RS.add (get pid) r));
    remove = (fun ~pid r -> Hashtbl.replace sets pid (RS.remove (get pid) r));
    overlaps = (fun ~pid r -> RS.mem_overlap (get pid) r);
    tainted_bytes = (fun () -> sum RS.total_bytes);
    range_count = (fun () -> sum RS.cardinal);
    ranges = (fun ~pid -> RS.ranges (get pid));
    release_pid = (fun ~pid -> Hashtbl.remove sets pid);
    dump = (fun () -> failwith "range_set_store: dump unused");
    merges = (fun () -> failwith "range_set_store: merges unused");
  }

let test_sweep_byte_identical () =
  let module Accuracy = Pift_eval.Accuracy in
  let module Recorded = Pift_eval.Recorded in
  let module App = Pift_workloads.App in
  let apps = Pift_workloads.Droidbench.subset48 in
  let nis = [ 1; 5; 9; 13 ] and nts = [ 1; 3 ] in
  let render sweep =
    Format.asprintf "%t" (fun ppf -> Accuracy.render sweep ppf ())
  in
  let sweep = Accuracy.sweep ~nis ~nts apps in
  let recorded = List.map (fun app -> (app, Recorded.record app)) apps in
  let cell (ni, nt) =
    let policy = Pift_core.Policy.make ~ni ~nt () in
    List.fold_left
      (fun (c : Accuracy.confusion) ((app : App.t), r) ->
        let got = Recorded.replay ~policy r in
        let want = Recorded.replay ~store:(range_set_store ()) ~policy r in
        let name s = Printf.sprintf "%s at (%d,%d): %s" app.App.name ni nt s in
        checkb (name "verdicts") true
          (got.Recorded.verdicts = want.Recorded.verdicts);
        checkb (name "stats") true (got.Recorded.stats = want.Recorded.stats);
        match (app.App.leaky, want.Recorded.flagged) with
        | true, true -> { c with tp = c.tp + 1 }
        | true, false -> { c with fn = c.fn + 1 }
        | false, true -> { c with fp = c.fp + 1 }
        | false, false -> { c with tn = c.tn + 1 })
      { Accuracy.tp = 0; fp = 0; tn = 0; fn = 0 }
      recorded
  in
  let keys =
    List.concat_map (fun ni -> List.map (fun nt -> (ni, nt)) nts) nis
  in
  let oracle =
    {
      Accuracy.apps = List.length apps;
      nis;
      nts;
      cells = List.map (fun k -> (k, cell k)) (List.sort compare keys);
      trace_insns =
        List.map
          (fun (_, r) -> Pift_trace.Trace.length r.Recorded.trace)
          recorded;
    }
  in
  checkb "confusion cells identical" true
    (sweep.Accuracy.cells = oracle.Accuracy.cells);
  Alcotest.(check string)
    "rendered sweep byte-identical" (render oracle) (render sweep)

let () =
  Alcotest.run "pift_store"
    [
      ( "differential",
        [
          Alcotest.test_case "flat/bytemap agree (12.5k ops)" `Quick
            test_differential;
          Alcotest.test_case "long sequences (10k ops)" `Quick
            test_differential_long;
        ] );
      ( "conventions",
        [
          Alcotest.test_case "closed intervals: hi+1 adjacency" `Quick
            test_closed_interval_adjacency;
          Alcotest.test_case "per-pid isolation" `Quick
            test_store_per_pid_isolation;
          Alcotest.test_case "read paths are pure" `Quick
            test_store_read_purity;
          Alcotest.test_case "incremental totals match recounts" `Quick
            test_store_incremental_totals;
          Alcotest.test_case "pid cache: A, B, A, release, unseen pid" `Quick
            test_store_pid_cache;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "DroidBench sweep byte-identical" `Quick
            test_sweep_byte_identical;
        ] );
    ]
