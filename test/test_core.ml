(* Unit and property tests for Pift_core: policy, range set, Algorithm 1
   tracker (differential against the naive reference), hardware storage. *)

module Range = Pift_util.Range
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Storage = Pift_core.Storage
module Store = Pift_core.Store
module Hw_model = Pift_core.Hw_model
module Event = Pift_trace.Event

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let r a b = Range.make a b

(* --- Policy ------------------------------------------------------------- *)

let test_policy () =
  let p = Policy.make ~ni:5 ~nt:2 () in
  checki "ni" 5 p.Policy.ni;
  checki "nt" 2 p.Policy.nt;
  checkb "untaint default" true p.Policy.untaint;
  checki "default ni" 13 Policy.default.Policy.ni;
  checki "default nt" 3 Policy.default.Policy.nt;
  checki "malware ni" 3 Policy.malware_catching.Policy.ni;
  checki "perfect ni" 18 Policy.perfect_droidbench.Policy.ni;
  Alcotest.check_raises "ni >= 1" (Invalid_argument "Policy.make: ni must be >= 1")
    (fun () -> ignore (Policy.make ~ni:0 ~nt:1 ()));
  Alcotest.check_raises "nt >= 1" (Invalid_argument "Policy.make: nt must be >= 1")
    (fun () -> ignore (Policy.make ~ni:1 ~nt:0 ()))

(* --- Range_set ----------------------------------------------------------- *)

let test_range_set_basic () =
  let s = Range_set.empty in
  checkb "empty" true (Range_set.is_empty s);
  let s = Range_set.add s (r 10 20) in
  checki "cardinal" 1 (Range_set.cardinal s);
  checki "bytes" 11 (Range_set.total_bytes s);
  checkb "overlap hit" true (Range_set.mem_overlap s (r 20 25));
  checkb "overlap miss" false (Range_set.mem_overlap s (r 21 25));
  checkb "covers" true (Range_set.covers s (r 12 18));
  checkb "covers not" false (Range_set.covers s (r 12 21))

let test_range_set_coalesce () =
  let s = Range_set.of_list [ r 0 4; r 10 14 ] in
  checki "two ranges" 2 (Range_set.cardinal s);
  (* overlapping merge *)
  let s1 = Range_set.add s (r 3 11) in
  checki "merged" 1 (Range_set.cardinal s1);
  checki "merged bytes" 15 (Range_set.total_bytes s1);
  (* adjacent merge *)
  let s2 = Range_set.add s (r 5 9) in
  checki "adjacent merged" 1 (Range_set.cardinal s2);
  (* non-touching insert *)
  let s3 = Range_set.add s (r 20 24) in
  checki "separate" 3 (Range_set.cardinal s3)

let test_range_set_remove () =
  let s = Range_set.of_list [ r 0 20 ] in
  let s1 = Range_set.remove s (r 5 10) in
  checki "split count" 2 (Range_set.cardinal s1);
  checki "split bytes" 15 (Range_set.total_bytes s1);
  checkb "left alive" true (Range_set.mem_overlap s1 (r 0 4));
  checkb "cut dead" false (Range_set.mem_overlap s1 (r 5 10));
  checkb "right alive" true (Range_set.mem_overlap s1 (r 11 20));
  let s2 = Range_set.remove s (r 0 20) in
  checkb "remove all" true (Range_set.is_empty s2);
  let s3 = Range_set.remove s (r 100 110) in
  checki "remove disjoint" 1 (Range_set.cardinal s3);
  (* removal spanning multiple entries *)
  let s4 = Range_set.of_list [ r 0 4; r 10 14; r 20 24 ] in
  let s5 = Range_set.remove s4 (r 2 22) in
  checki "multi-cut" 2 (Range_set.cardinal s5);
  checki "multi-cut bytes" 4 (Range_set.total_bytes s5)

(* Differential property: Range_set vs a per-byte Hashtbl model. *)
let range_gen =
  QCheck2.Gen.(
    let* lo = int_range 0 120 in
    let* len = int_range 1 24 in
    return (Range.of_len lo len))

let op_gen =
  QCheck2.Gen.(
    let* op = int_range 0 2 in
    let* range = range_gen in
    return (op, range))

let prop_range_set_model =
  QCheck2.Test.make ~name:"range set agrees with a per-byte model"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let model = Hashtbl.create 64 in
      let set = ref Range_set.empty in
      let ok = ref true in
      List.iter
        (fun (op, range) ->
          match op with
          | 0 ->
              set := Range_set.add !set range;
              for x = Range.lo range to Range.hi range do
                Hashtbl.replace model x ()
              done
          | 1 ->
              set := Range_set.remove !set range;
              for x = Range.lo range to Range.hi range do
                Hashtbl.remove model x
              done
          | _ ->
              let naive = ref false in
              for x = Range.lo range to Range.hi range do
                if Hashtbl.mem model x then naive := true
              done;
              if Range_set.mem_overlap !set range <> !naive then ok := false)
        ops;
      (* final invariants: byte count matches; ranges disjoint and
         non-adjacent (canonical form) *)
      if Range_set.total_bytes !set <> Hashtbl.length model then ok := false;
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
            Range.hi a + 1 < Range.lo b && disjoint rest
        | [ _ ] | [] -> true
      in
      if not (disjoint (Range_set.ranges !set)) then ok := false;
      !ok)

(* --- Tracker: Algorithm 1 scenarios -------------------------------------- *)

let load range k =
  { Event.seq = k; k; pid = 1; access = Event.Load range }

let store range k =
  { Event.seq = k; k; pid = 1; access = Event.Store range }

let other k =
  { Event.seq = k; k; pid = 1; access = Event.Other }

let feed tracker events = List.iter (Tracker.observe tracker) events

let test_tracker_window () =
  let t = Tracker.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  (* tainted load opens a window; store at distance 2 is tainted *)
  feed t [ load (r 100 101) 1; other 2; store (r 200 203) 3 ];
  checkb "in-window store tainted" true
    (Tracker.is_tainted t ~pid:1 (r 200 203));
  (* store at distance 5 > NI: untainted instead *)
  feed t [ store (r 200 201) 6 ];
  checkb "outside window untaints" false
    (Tracker.is_tainted t ~pid:1 (r 200 201));
  checkb "rest of range still tainted" true
    (Tracker.is_tainted t ~pid:1 (r 202 203))

let test_tracker_nt_cap () =
  let t = Tracker.create ~policy:(Policy.make ~ni:10 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  feed t
    [
      load (r 100 101) 1;
      store (r 200 200) 2;
      store (r 210 210) 3;
      store (r 220 220) 4;
    ];
  checkb "store 1 tainted" true (Tracker.is_tainted t ~pid:1 (r 200 200));
  checkb "store 2 tainted" true (Tracker.is_tainted t ~pid:1 (r 210 210));
  checkb "store 3 beyond NT" false (Tracker.is_tainted t ~pid:1 (r 220 220));
  let s = Tracker.stats t in
  checki "taint ops" 2 s.Tracker.taint_ops;
  checki "tainted loads" 1 s.Tracker.tainted_loads

let test_tracker_window_restart () =
  let t = Tracker.create ~policy:(Policy.make ~ni:4 ~nt:1 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  feed t
    [
      load (r 100 100) 1;
      store (r 200 200) 2 (* nt exhausted *);
      load (r 105 105) 3 (* window restarts, nt resets *);
      store (r 210 210) 4;
    ];
  checkb "second window taints again" true
    (Tracker.is_tainted t ~pid:1 (r 210 210))

let test_tracker_untaint_disabled () =
  let t =
    Tracker.create ~policy:(Policy.make ~untaint:false ~ni:2 ~nt:1 ()) ()
  in
  Tracker.taint_source t ~pid:1 (r 100 110);
  feed t [ store (r 105 106) 1 ];
  checkb "no untaint when disabled" true
    (Tracker.is_tainted t ~pid:1 (r 105 106));
  let t2 =
    Tracker.create ~policy:(Policy.make ~untaint:true ~ni:2 ~nt:1 ()) ()
  in
  Tracker.taint_source t2 ~pid:1 (r 100 110);
  feed t2 [ store (r 105 106) 1 ];
  checkb "untaint when enabled" false
    (Tracker.is_tainted t2 ~pid:1 (r 105 106))

(* An explicit untaint (e.g. a scrubbing intrinsic) must show up as a
   dip in the live occupancy at once — Fig. 15 and the telemetry
   sources read it from there — while the byte peak keeps its
   high-water mark. *)
let test_tracker_untaint_range_records_dip () =
  let t = Tracker.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 199);
  feed t [ load (r 100 101) 1; store (r 300 303) 2 ];
  checki "bytes before untaint" 104 (Tracker.current_tainted_bytes t);
  Tracker.untaint_range t ~pid:1 (r 150 199);
  checkb "range untainted" false (Tracker.is_tainted t ~pid:1 (r 150 199));
  checki "occupancy records the dip" 54 (Tracker.current_tainted_bytes t);
  checki "peak survives the dip" 104
    (Tracker.stats t).Tracker.max_tainted_bytes;
  (* A removal that cuts a hole splits a range in two: the range peak
     must follow, both for a Manager untaint and for an observed
     out-of-window store. *)
  Tracker.untaint_range t ~pid:1 (r 120 129);
  checki "split by untaint_range" 3 (Tracker.current_ranges t);
  checki "range peak follows untaint_range" 3
    (Tracker.stats t).Tracker.max_ranges;
  feed t [ store (r 110 111) 10 ];
  checki "split by an untaint op" 4 (Tracker.current_ranges t);
  checki "range peak follows the untaint op" 4
    (Tracker.stats t).Tracker.max_ranges

let test_tracker_per_pid () =
  let t = Tracker.create ~policy:(Policy.make ~ni:5 ~nt:1 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  (* pid 2's load of the same addresses sees clean state *)
  Tracker.observe t
    { Event.seq = 1; k = 1; pid = 2; access = Event.Load (r 100 101) };
  Tracker.observe t
    { Event.seq = 2; k = 2; pid = 2; access = Event.Store (r 300 301) };
  checkb "no cross-pid window" false (Tracker.is_tainted t ~pid:2 (r 300 301));
  (* pid 1's window does not serve pid 2's stores *)
  Tracker.observe t
    { Event.seq = 3; k = 3; pid = 1; access = Event.Load (r 100 101) };
  Tracker.observe t
    { Event.seq = 4; k = 4; pid = 2; access = Event.Store (r 310 311) };
  checkb "window is per-process" false
    (Tracker.is_tainted t ~pid:2 (r 310 311))

(* Regression: a hand-built 10-event trace with known taint traffic
   must yield known [stats] counts. *)
let test_tracker_ten_event_counts () =
  let t = Tracker.create ~policy:(Policy.make ~ni:4 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 120);
  feed t
    [
      load (r 100 101) 1 (* tainted load: window opens *);
      other 2;
      store (r 200 203) 3 (* taint op 1 *);
      store (r 210 211) 4 (* taint op 2: NT reached *);
      store (r 220 221) 5 (* NT exhausted, clean target: no-op *);
      load (r 50 51) 6 (* clean lookup *);
      store (r 200 201) 7 (* outside window, tainted target: untaint *);
      load (r 210 210) 8 (* tainted load: window restarts *);
      store (r 230 231) 9 (* taint op 3 *);
      other 10;
    ];
  let s = Tracker.stats t in
  checki "events" 10 s.Tracker.events;
  checki "lookups" 3 s.Tracker.lookups;
  checki "tainted loads" 2 s.Tracker.tainted_loads;
  checki "taint ops" 3 s.Tracker.taint_ops;
  checki "untaint ops" 1 s.Tracker.untaint_ops;
  checki "window used after the restart" 1 (Tracker.window_used t ~pid:1);
  checki "no window, none used" 0 (Tracker.window_used t ~pid:2)

(* Differential property: Tracker vs the naive Reference on random event
   streams over three interleaved pids, each with its own instruction
   counter [k], with random sources and persist/restore round trips.
   The pid switches exercise the tracker's and the store's one-entry pid
   caches; a restore lands in a fresh
   tracker whose caches were primed by queries first. *)
let ref_pids = [| 1; 7; 1 lsl 20 |]

let events_gen =
  QCheck2.Gen.(
    let range_g =
      let* lo = int_range 0 100 in
      let* len = int_range 1 8 in
      return (Range.of_len lo len)
    in
    (* kinds: 0–6 load, 7–13 store, 14–16 other, 17 source, 18 persist +
       restore *)
    let event_g =
      let* pid = int_range 0 (Array.length ref_pids - 1) in
      let* kind = int_range 0 18 in
      let* range = range_g in
      return (ref_pids.(pid), kind, range)
    in
    list_size (int_range 1 200) event_g)

let prop_tracker_reference =
  QCheck2.Test.make
    ~name:"tracker agrees with the naive Algorithm 1 model on 3 pids"
    ~count:300
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 4) events_gen)
    (fun (ni, nt, events) ->
      let policy = Policy.make ~ni ~nt () in
      let tracker = ref (Tracker.create ~policy ()) in
      let reference = Reference.create policy in
      Array.iter
        (fun pid ->
          Tracker.taint_source !tracker ~pid (r 0 10);
          Reference.taint_source reference ~pid (r 0 10))
        ref_pids;
      let ks = Hashtbl.create 3 in
      let agree () =
        let ok = ref true in
        Array.iter
          (fun pid ->
            for x = 0 to 120 do
              if
                Tracker.is_tainted !tracker ~pid (Range.byte x)
                <> Reference.is_tainted reference ~pid (Range.byte x)
              then ok := false
            done)
          ref_pids;
        let listed =
          Array.fold_left
            (fun acc pid ->
              List.fold_left
                (fun acc range -> acc + Range.length range)
                acc
                (Tracker.tainted_ranges !tracker ~pid))
            0 ref_pids
        in
        let bytes = Reference.tainted_bytes reference in
        !ok && listed = bytes && Tracker.current_tainted_bytes !tracker = bytes
      in
      List.iteri
        (fun i (pid, kind, range) ->
          let seq = i + 1 in
          let next_k () =
            let k = 1 + Option.value ~default:0 (Hashtbl.find_opt ks pid) in
            Hashtbl.replace ks pid k;
            k
          in
          let feed access =
            let e = { Event.seq; k = next_k (); pid; access } in
            Tracker.observe !tracker e;
            Reference.observe reference e
          in
          if kind <= 6 then feed (Event.Load range)
          else if kind <= 13 then feed (Event.Store range)
          else if kind <= 16 then feed Event.Other
          else if kind = 17 then begin
            Tracker.taint_source !tracker ~pid range;
            Reference.taint_source reference ~pid range
          end
          else begin
            let fresh = Tracker.create ~policy () in
            Array.iter
              (fun pid ->
                ignore (Tracker.window_used fresh ~pid);
                ignore (Tracker.is_tainted fresh ~pid (Range.byte 0)))
              ref_pids;
            Tracker.restore fresh (Tracker.persist !tracker);
            tracker := fresh
          end)
        events;
      agree ())

(* The NT-sharing rule behind [Tracker.depth]: a run at (ni, nt) whose
   depth d is at most nt gives the same sink verdicts, origin sets and
   stats at every nt' in [d, nt], and each run's verdicts agree with the
   Reference model's at its own NT.  The streams interleave three pids,
   each with its own sources (two labels), sinks and instruction
   counter. *)
let sharing_gen =
  QCheck2.Gen.(
    let range_g =
      let* lo = int_range 0 60 in
      let* len = int_range 1 8 in
      return (Range.of_len lo len)
    in
    (* kinds: 0–6 load, 7–14 store, 15–16 other, 17–18 source, 19 sink *)
    let op_g =
      let* pid = int_range 0 (Array.length ref_pids - 1) in
      let* kind = int_range 0 19 in
      let* range = range_g in
      let* label = oneofl [ "IMEI"; "GPS" ] in
      return (ref_pids.(pid), kind, range, label)
    in
    quad (int_range 1 8) (int_range 1 8) bool
      (list_size (int_range 1 200) op_g))

(* One stream through a tracker or the Reference model: [source] on
   every pid, then the ops, each event ([observe]) with its pid's own
   instruction counter; [check] answers each sink, in order. *)
let run_ops ops ~source ~observe ~check =
  Array.iter (fun pid -> source ~kind:"IMEI" ~pid (r 0 10)) ref_pids;
  let ks = Hashtbl.create 3 in
  let checks = ref [] in
  List.iteri
    (fun i (pid, kind, range, label) ->
      if kind <= 16 then begin
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt ks pid) in
        Hashtbl.replace ks pid k;
        let access =
          if kind <= 6 then Event.Load range
          else if kind <= 14 then Event.Store range
          else Event.Other
        in
        observe { Event.seq = i + 1; k; pid; access }
      end
      else if kind <= 18 then source ~kind:label ~pid range
      else checks := check ~pid range :: !checks)
    ops;
  List.rev !checks

(* Sink checks (verdict, origins), stats, depth and NI floor of the
   tracker over one stream. *)
let run_sharing ~policy ops =
  let tracker =
    Tracker.create ~policy ~prov:(Pift_core.Provenance.create ()) ()
  in
  let checks =
    run_ops ops
      ~source:(fun ~kind ~pid range ->
        Tracker.taint_source ~kind tracker ~pid range)
      ~observe:(Tracker.observe tracker)
      ~check:(fun ~pid range ->
        ( Tracker.is_tainted tracker ~pid range,
          Tracker.origins_of tracker ~pid range ))
  in
  (checks, Tracker.stats tracker, Tracker.depth tracker,
   Tracker.ni_floor tracker)

(* The Reference model's sink verdicts over the same stream. *)
let reference_checks ~policy ops =
  let model = Reference.create policy in
  run_ops ops
    ~source:(fun ~kind:_ ~pid range -> Reference.taint_source model ~pid range)
    ~observe:(Reference.observe model)
    ~check:(fun ~pid range -> Reference.is_tainted model ~pid range)

let prop_nt_sharing =
  QCheck2.Test.make
    ~name:"a run at NT answers every NT' from its depth up" ~count:300
    sharing_gen
    (fun (ni, nt, untaint, ops) ->
      let policy nt = Policy.make ~untaint ~ni ~nt () in
      let at nt = run_sharing ~policy:(policy nt) ops in
      let checks, stats, depth, _ = at nt in
      let from = max 1 depth in
      List.map fst checks = reference_checks ~policy:(policy nt) ops
      && (depth > nt
         || List.for_all
              (fun nt' ->
                let checks', stats', _, _ = at nt' in
                checks' = checks && stats' = stats
                && List.map fst checks'
                   = reference_checks ~policy:(policy nt') ops)
              (List.init (nt - from + 1) (( + ) from))))

(* The largest gap [k - LTLT] of a store that passes the window test at
   [ni], recomputed outside the tracker: a load opens its pid's window
   when it finds taint, asked before the tracker takes it. *)
let largest_passing_gap ~policy ops =
  let tracker = Tracker.create ~policy () in
  let ltlt = Hashtbl.create 3 and largest = ref 0 in
  ignore
    (run_ops ops
       ~source:(fun ~kind ~pid range ->
         Tracker.taint_source ~kind tracker ~pid range)
       ~observe:(fun (e : Event.t) ->
         (match e.access with
         | Event.Load r when Tracker.is_tainted tracker ~pid:e.pid r ->
             Hashtbl.replace ltlt e.pid e.k
         | Event.Store _ -> (
             match Hashtbl.find_opt ltlt e.pid with
             | Some l when e.k - l <= policy.Policy.ni ->
                 largest := max !largest (e.k - l)
             | _ -> ())
         | _ -> ());
         Tracker.observe tracker e)
       ~check:(fun ~pid range -> Tracker.is_tainted tracker ~pid range));
  !largest

(* The rectangle rule behind [Tracker.ni_floor]: a run at (NI, NT) with
   floor lo and depth d gives the same sink checks, origins and stats at
   every (NI', NT') in [lo, NI] x [min d NT, NT].  The floor is tight:
   it is the largest passing gap, so at floor - 1 the store with that
   gap fails the window test. *)
let prop_ni_band =
  QCheck2.Test.make
    ~name:"a run at (NI, NT) answers its band x depth rectangle" ~count:300
    sharing_gen
    (fun (ni, nt, untaint, ops) ->
      let policy = Policy.make ~untaint ~ni ~nt () in
      let at ni nt =
        run_sharing ~policy:(Policy.make ~untaint ~ni ~nt ()) ops
      in
      let checks, stats, depth, floor = at ni nt in
      let range a b = List.init (b - a + 1) (( + ) a) in
      floor = max 1 (largest_passing_gap ~policy ops)
      && List.for_all
           (fun ni' ->
             List.for_all
               (fun nt' ->
                 let checks', stats', _, _ = at ni' nt' in
                 checks' = checks && stats' = stats)
               (range (max 1 (min depth nt)) nt))
           (range floor ni))

(* --- Provenance ------------------------------------------------------------ *)

module Provenance = Pift_core.Provenance

let test_provenance_labels () =
  let p = Provenance.create () in
  let tp = Tracker.create ~policy:(Policy.make ~ni:5 ~nt:2 ()) ~prov:p () in
  Tracker.taint_source ~kind:"IMEI" tp ~pid:1 (r 100 110);
  Tracker.taint_source ~kind:"GPS" tp ~pid:1 (r 200 210);
  let obs e = Tracker.observe tp e in
  (* a load touching only the IMEI range propagates only that label *)
  obs (load (r 100 101) 1);
  obs (store (r 300 303) 2);
  checkb "imei label" true
    (Provenance.labels_of p ~pid:1 (r 300 303) = [ "IMEI" ]);
  (* a load spanning both propagates both *)
  Tracker.taint_source ~kind:"GPS" tp ~pid:1 (r 304 307);
  obs (load (r 104 106) 10);
  obs (load (r 204 206) 11);
  obs (store (r 400 403) 12);
  checkb "gps label" true
    (Provenance.labels_of p ~pid:1 (r 400 403) = [ "GPS" ]);
  checkb "is_tainted" true (Provenance.is_tainted p ~pid:1 (r 400 403));
  checkb "clean range" false (Provenance.is_tainted p ~pid:1 (r 500 501));
  checkb "all labels" true (Provenance.all_labels p = [ "GPS"; "IMEI" ]);
  checkb "bytes per label" true (Provenance.tainted_bytes p ~label:"IMEI" > 0)

let test_provenance_union_and_untaint () =
  let p = Provenance.create () in
  let tp = Tracker.create ~policy:(Policy.make ~ni:8 ~nt:2 ()) ~prov:p () in
  Tracker.taint_source ~kind:"A" tp ~pid:1 (r 0 10);
  Tracker.taint_source ~kind:"B" tp ~pid:1 (r 8 20);
  let obs e = Tracker.observe tp e in
  (* load overlapping both label ranges -> stores carry the union *)
  obs (load (r 9 10) 1);
  obs (store (r 100 103) 2);
  checkb "union of labels" true
    (Provenance.labels_of p ~pid:1 (r 100 103) = [ "A"; "B" ]);
  (* out-of-window store untaints all labels *)
  obs (store (r 100 103) 50);
  checkb "untainted" false (Provenance.is_tainted p ~pid:1 (r 100 103));
  (* window semantics match the plain tracker *)
  let t = Tracker.create ~policy:(Policy.make ~ni:8 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 0 20);
  feed t [ load (r 9 10) 1; store (r 100 103) 2; store (r 100 103) 50 ];
  checkb "agrees with tracker" true
    (Tracker.is_tainted t ~pid:1 (r 100 103)
    = Provenance.is_tainted p ~pid:1 (r 100 103))

let test_provenance_nt_cap_merged_labels () =
  (* The NT store cap is a property of the window, not of any one
     label: a load spanning two label ranges opens one window carrying
     both, and each tainting store counts once against NT — not once
     per label.  Otherwise the per-label union would drift from the
     plain tracker's single-window state. *)
  let policy = Policy.make ~ni:20 ~nt:2 () in
  let p = Provenance.create () in
  let tp = Tracker.create ~policy ~prov:p () in
  Tracker.taint_source ~kind:"A" tp ~pid:1 (r 0 10);
  Tracker.taint_source ~kind:"B" tp ~pid:1 (r 8 20);
  let obs e = Tracker.observe tp e in
  obs (load (r 9 10) 1);
  obs (store (r 100 103) 2);
  obs (store (r 200 203) 3);
  obs (store (r 300 303) 4);
  (* first two stores carry both labels, the third hits a closed window *)
  checkb "store 1 carries both" true
    (Provenance.labels_of p ~pid:1 (r 100 103) = [ "A"; "B" ]);
  checkb "store 2 carries both" true
    (Provenance.labels_of p ~pid:1 (r 200 203) = [ "A"; "B" ]);
  checkb "store 3 beyond NT is clean" false
    (Provenance.is_tainted p ~pid:1 (r 300 303));
  (* same cap as the plain tracker over the same events *)
  let t = Tracker.create ~policy () in
  Tracker.taint_source t ~pid:1 (r 0 20);
  feed t [ load (r 9 10) 1; store (r 100 103) 2; store (r 200 203) 3;
           store (r 300 303) 4 ];
  List.iter
    (fun range ->
      checkb "union matches tracker" true
        (Tracker.is_tainted t ~pid:1 range
        = Provenance.is_tainted p ~pid:1 range))
    [ r 100 103; r 200 203; r 300 303 ];
  (* a fresh load reopens the window with a fresh NT budget *)
  obs (load (r 0 1) 30);
  obs (store (r 300 303) 31);
  checkb "reopened window taints again" true
    (Provenance.labels_of p ~pid:1 (r 300 303) = [ "A" ])

let test_provenance_entries_sorted () =
  let p = Provenance.create () in
  Provenance.taint_source p ~pid:2 ~label:"Z" (r 50 60);
  Provenance.taint_source p ~pid:1 ~label:"B" (r 30 40);
  Provenance.taint_source p ~pid:1 ~label:"A" (r 300 310);
  Provenance.taint_source p ~pid:1 ~label:"A" (r 0 10);
  let keys = List.map fst (Provenance.entries p) in
  checkb "entries sorted by (pid, label)" true
    (keys = [ (1, "A"); (1, "B"); (2, "Z") ]);
  List.iter
    (fun (_, ranges) ->
      let los = List.map Range.lo ranges in
      checkb "ranges ascending" true (List.sort compare los = los))
    (Provenance.entries p);
  (* untaint_range splits per-label sets without touching other pids *)
  Provenance.untaint_range p ~pid:1 (r 4 6);
  checkb "untaint splits the A set" true
    (match List.assoc_opt (1, "A") (Provenance.entries p) with
    | Some ranges -> List.length ranges = 3
    | None -> false);
  checkb "other pid untouched" true
    (List.assoc_opt (2, "Z") (Provenance.entries p) = Some [ r 50 60 ])

let test_provenance_label_sets () =
  (* one event feed, checked set by set: two overlapping sources, a
     window carrying both labels into NT stores, a second window opened
     by one label only, and an untaint splitting both label sets; the
     per-label union answers like the plain tracker on the same feed *)
  let policy = Policy.make ~ni:6 ~nt:2 () in
  let p = Provenance.create () in
  let tp = Tracker.create ~policy ~prov:p () in
  let t = Tracker.create ~policy () in
  Tracker.taint_source ~kind:"IMEI" tp ~pid:1 (r 100 120);
  Tracker.taint_source ~kind:"GPS" tp ~pid:1 (r 115 130);
  Tracker.taint_source t ~pid:1 (r 100 130);
  let events =
    [ load (r 116 118) 1; store (r 200 203) 2; store (r 210 213) 3;
      load (r 100 101) 10; store (r 220 223) 11 ]
  in
  feed tp events;
  feed t events;
  Tracker.untaint_range tp ~pid:1 (r 211 212);
  Tracker.untaint_range t ~pid:1 (r 211 212);
  checkb "per-label entries" true
    (Provenance.entries p
    = [
        ((1, "GPS"), [ r 115 130; r 200 203; r 210 210; r 213 213 ]);
        ( (1, "IMEI"),
          [ r 100 120; r 200 203; r 210 210; r 213 213; r 220 223 ] );
      ]);
  List.iter
    (fun range ->
      checkb
        ("union matches tracker at " ^ Range.to_string range)
        (Tracker.is_tainted t ~pid:1 range)
        (Provenance.is_tainted p ~pid:1 range))
    [ r 200 203; r 211 212; r 213 213; r 220 223; r 224 300 ]

(* Per-step union property: a tracker carrying the sidecar, fed random
   multi-pid streams of labelled sources, loads, stores and untaints.  After every step, for every pid, the per-label sets union
   to exactly the tracker's ranges and [origins_of] is non-empty iff
   [is_tainted] on every probe block.  Midway the pair is persisted and
   restored into a fresh tracker and sidecar; from then on both runs
   take the same steps and must give the same origin sets. *)
type pop =
  | P_source of int * string * Range.t
  | P_load of int * Range.t
  | P_store of int * Range.t
  | P_untaint of int * Range.t

type pcase = { pc_policy : Policy.t; pc_ops : pop list }

let pop_to_string = function
  | P_source (pid, l, r) ->
      Printf.sprintf "source p%d %s %s" pid l (Range.to_string r)
  | P_load (pid, r) -> Printf.sprintf "load p%d %s" pid (Range.to_string r)
  | P_store (pid, r) -> Printf.sprintf "store p%d %s" pid (Range.to_string r)
  | P_untaint (pid, r) ->
      Printf.sprintf "untaint p%d %s" pid (Range.to_string r)

let prov_pids = [ 1; 2; 3 ]
let prov_labels = [| "IMEI"; "GPS"; "SMS" |]

let gen_pcase rng =
  let module Rng = Pift_util.Rng in
  (* Draws are sequenced with [let]: argument and tuple evaluation order
     is unspecified, and the case must depend on the seed alone. *)
  let untaint = Rng.bool rng in
  let ni = Rng.int_in rng 1 4 in
  let nt = Rng.int_in rng 1 3 in
  let pc_policy = Policy.make ~untaint ~ni ~nt () in
  let gen_pop () =
    let pid = 1 + Rng.int rng 3 in
    match Rng.int rng 19 with
    | 0 | 1 | 2 ->
        let label = prov_labels.(Rng.int rng (Array.length prov_labels)) in
        P_source (pid, label, Prop.gen_range rng)
    | 3 | 4 | 5 | 6 | 7 | 8 -> P_load (pid, Prop.gen_range rng)
    | 9 | 10 | 11 | 12 | 13 | 14 | 15 | 16 -> P_store (pid, Prop.gen_range rng)
    | _ -> P_untaint (pid, Prop.gen_range rng)
  in
  let rec go n acc =
    if n = 0 then List.rev acc else go (n - 1) (gen_pop () :: acc)
  in
  { pc_policy; pc_ops = go 80 [] }

let prov_probes =
  List.init (Prop.addr_space / Prop.block) (fun b ->
      Range.of_len (b * Prop.block) Prop.block)

let prov_pair policy =
  let prov = Provenance.create () in
  (Tracker.create ~policy ~prov (), prov)

let union_violation (tr, prov) =
  List.find_map
    (fun pid ->
      let union =
        Range_set.ranges
          (Range_set.of_list
             (List.concat_map
                (fun ((p, _), ranges) -> if p = pid then ranges else [])
                (Provenance.entries prov)))
      in
      if union <> Tracker.tainted_ranges tr ~pid then
        Some (Printf.sprintf "pid %d: label union differs from the tracker" pid)
      else
        List.find_map
          (fun q ->
            if
              (Tracker.origins_of tr ~pid q <> [])
              <> Tracker.is_tainted tr ~pid q
            then
              Some
                (Printf.sprintf
                   "pid %d: origins_of and is_tainted disagree at %s" pid
                   (Range.to_string q))
            else None)
          prov_probes)
    prov_pids

let origin_answers (tr, _) =
  List.concat_map
    (fun pid -> List.map (fun q -> Tracker.origins_of tr ~pid q) prov_probes)
    prov_pids

let prop_provenance_union { pc_policy; pc_ops } =
  let ks = Hashtbl.create 4 in
  let apply (tr, _) seq = function
    | P_source (pid, label, r) -> Tracker.taint_source ~kind:label tr ~pid r
    | P_untaint (pid, r) -> Tracker.untaint_range tr ~pid r
    | (P_load (pid, r) | P_store (pid, r)) as op ->
        let k = Hashtbl.find ks pid in
        let access =
          match op with P_load _ -> Event.Load r | _ -> Event.Store r
        in
        Tracker.observe tr { Event.seq; k; pid; access }
  in
  let split = List.length pc_ops / 2 in
  let a = prov_pair pc_policy in
  let rec go seq restored = function
    | [] -> Ok ()
    | op :: rest -> (
        let restored =
          if seq <> split then restored
          else begin
            let b = prov_pair pc_policy in
            Tracker.restore (fst b) (Tracker.persist (fst a));
            Some b
          end
        in
        (match op with
        | P_load (pid, _) | P_store (pid, _) ->
            Hashtbl.replace ks pid
              (1 + Option.value ~default:0 (Hashtbl.find_opt ks pid))
        | P_source _ | P_untaint _ -> ());
        apply a seq op;
        Option.iter (fun b -> apply b seq op) restored;
        let fail who msg =
          Error
            (Printf.sprintf "step %d (%s), %s: %s" seq (pop_to_string op) who
               msg)
        in
        match union_violation a with
        | Some msg -> fail "uninterrupted" msg
        | None -> (
            match restored with
            | None -> go (seq + 1) restored rest
            | Some b -> (
                match union_violation b with
                | Some msg -> fail "restored" msg
                | None ->
                    if origin_answers a <> origin_answers b then
                      fail "restored"
                        "origin sets differ from the uninterrupted run"
                    else go (seq + 1) restored rest)))
  in
  go 0 None pc_ops

let test_provenance_union_per_step () =
  Prop.check_gen ~name:"sidecar union = tracker after every step" ~count:250
    ~gen:gen_pcase
    ~shrink:(fun c ->
      List.map
        (fun ops -> { c with pc_ops = ops })
        (Prop.shrink_candidates c.pc_ops))
    ~to_string:(fun c ->
      Printf.sprintf "%s, %d ops: %s" (Policy.to_string c.pc_policy)
        (List.length c.pc_ops)
        (String.concat "; " (List.map pop_to_string c.pc_ops)))
    prop_provenance_union

(* --- Per-label origins oracle ---------------------------------------------- *)

(* A literal model of what the sidecar answers, independent of how it
   stores it: one [Range_set] per (pid, label), made when a source
   first registers the label on the pid, and one window per pid whose
   label set is fixed by the tainted load that opened it — the labels
   that load's range touched.  The model makes Algorithm 1's decisions
   itself, over the union of a pid's label sets, so a wrong window in
   the tracker or a wrong label set in the sidecar both show as a
   different [labels_of].  [probes] counts one per label of the scanned
   pid on each window opening, untaint and label query, as
   {!Provenance.probes} is specified. *)
module Origins_model = struct
  type window = {
    mutable ltlt : int;
    mutable nt_used : int;
    mutable labels : string list;
  }

  type t = {
    policy : Policy.t;
    sets : (int * string, Range_set.t) Hashtbl.t;
    windows : (int, window) Hashtbl.t;
    mutable probes : int;
  }

  let create policy =
    { policy; sets = Hashtbl.create 8; windows = Hashtbl.create 4; probes = 0 }

  let labels t pid =
    List.sort String.compare
      (Hashtbl.fold
         (fun (p, l) _ acc -> if p = pid then l :: acc else acc)
         t.sets [])

  let overlapping t pid r =
    List.filter
      (fun l -> Range_set.mem_overlap (Hashtbl.find t.sets (pid, l)) r)
      (labels t pid)

  let probe t pid =
    t.probes <- t.probes + List.length (labels t pid)

  let labels_of t ~pid r =
    probe t pid;
    overlapping t pid r

  let update t pid f label =
    Hashtbl.replace t.sets (pid, label) (f (Hashtbl.find t.sets (pid, label)))

  let source t ~pid ~label r =
    let s =
      Option.value ~default:Range_set.empty (Hashtbl.find_opt t.sets (pid, label))
    in
    Hashtbl.replace t.sets (pid, label) (Range_set.add s r)

  let untaint t ~pid r =
    probe t pid;
    List.iter (update t pid (fun s -> Range_set.remove s r)) (labels t pid)

  let window t pid =
    match Hashtbl.find_opt t.windows pid with
    | Some w -> w
    | None ->
        let w = { ltlt = min_int / 2; nt_used = 0; labels = [] } in
        Hashtbl.add t.windows pid w;
        w

  let load t ~pid ~k r =
    match overlapping t pid r with
    | [] -> ()
    | hit ->
        probe t pid;
        let w = window t pid in
        w.ltlt <- k;
        w.nt_used <- 0;
        w.labels <- hit

  let store t ~pid ~k r =
    let w = window t pid in
    if k <= w.ltlt + t.policy.Policy.ni && w.nt_used < t.policy.Policy.nt then begin
      List.iter (update t pid (fun s -> Range_set.add s r)) w.labels;
      w.nt_used <- w.nt_used + 1
    end
    else if t.policy.Policy.untaint && overlapping t pid r <> [] then
      untaint t ~pid r

  let entries t =
    List.sort compare
      (Hashtbl.fold (fun key s acc -> (key, Range_set.ranges s) :: acc) t.sets [])
end

let prop_origins_oracle { pc_policy; pc_ops } =
  let prov = Provenance.create () in
  let tr = Tracker.create ~policy:pc_policy ~prov () in
  let m = Origins_model.create pc_policy in
  let ks = Hashtbl.create 4 in
  let next_k pid =
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt ks pid) in
    Hashtbl.replace ks pid k;
    k
  in
  let apply seq = function
    | P_source (pid, label, r) ->
        Tracker.taint_source ~kind:label tr ~pid r;
        Origins_model.source m ~pid ~label r
    | P_untaint (pid, r) ->
        Tracker.untaint_range tr ~pid r;
        Origins_model.untaint m ~pid r
    | P_load (pid, r) ->
        let k = next_k pid in
        Tracker.observe tr { Event.seq; k; pid; access = Event.Load r };
        Origins_model.load m ~pid ~k r
    | P_store (pid, r) ->
        let k = next_k pid in
        Tracker.observe tr { Event.seq; k; pid; access = Event.Store r };
        Origins_model.store m ~pid ~k r
  in
  let mismatch () =
    List.find_map
      (fun pid ->
        List.find_map
          (fun q ->
            let got = Tracker.origins_of tr ~pid q
            and want = Origins_model.labels_of m ~pid q in
            if got = want then None
            else
              Some
                (Printf.sprintf "pid %d at %s: labels [%s], model [%s]" pid
                   (Range.to_string q) (String.concat "; " got)
                   (String.concat "; " want)))
          prov_probes)
      prov_pids
  in
  let rec go seq = function
    | [] ->
        if Provenance.entries prov <> Origins_model.entries m then
          Error "entries differ from the model's"
        else if Provenance.probes prov <> m.Origins_model.probes then
          Error
            (Printf.sprintf "probes %d, model %d" (Provenance.probes prov)
               m.Origins_model.probes)
        else Ok ()
    | op :: rest -> (
        apply seq op;
        match mismatch () with
        | Some msg ->
            Error (Printf.sprintf "step %d (%s): %s" seq (pop_to_string op) msg)
        | None -> go (seq + 1) rest)
  in
  go 0 pc_ops

let test_origins_oracle () =
  Prop.check_gen ~name:"origins = per-label model after every step" ~count:250
    ~gen:gen_pcase
    ~shrink:(fun c ->
      List.map
        (fun ops -> { c with pc_ops = ops })
        (Prop.shrink_candidates c.pc_ops))
    ~to_string:(fun c ->
      Printf.sprintf "%s, %d ops: %s" (Policy.to_string c.pc_policy)
        (List.length c.pc_ops)
        (String.concat "; " (List.map pop_to_string c.pc_ops)))
    prop_origins_oracle

let ev pid access k = { Event.seq = k; k; pid; access }

(* A window's labels are those its opening load touched: a label
   registered afterwards, even over the loaded bytes, is not carried
   by the window's later stores. *)
let test_origins_mid_window_label () =
  let p = Provenance.create () in
  let tp = Tracker.create ~policy:(Policy.make ~ni:8 ~nt:3 ()) ~prov:p () in
  Tracker.taint_source ~kind:"IMEI" tp ~pid:1 (r 0 15);
  Tracker.observe tp (ev 1 (Event.Load (r 0 3)) 1);
  Tracker.taint_source ~kind:"GPS" tp ~pid:1 (r 0 3);
  Tracker.observe tp (ev 1 (Event.Store (r 200 203)) 2);
  checkb "store carries the opener's labels only" true
    (Tracker.origins_of tp ~pid:1 (r 200 203) = [ "IMEI" ]);
  Tracker.observe tp (ev 1 (Event.Load (r 2 2)) 3);
  Tracker.observe tp (ev 1 (Event.Store (r 300 303)) 4);
  checkb "the next opening picks the label up" true
    (Tracker.origins_of tp ~pid:1 (r 300 303) = [ "GPS"; "IMEI" ])

(* A window persisted while open keeps its labels through a restore:
   the restored pair's next in-window store carries them, exactly as
   the uninterrupted pair's does. *)
let test_origins_store_after_restore () =
  let policy = Policy.make ~ni:8 ~nt:3 () in
  let pair () =
    let p = Provenance.create () in
    (Tracker.create ~policy ~prov:p (), p)
  in
  let ((ta, pa) as a) = pair () in
  Tracker.taint_source ~kind:"IMEI" ta ~pid:1 (r 0 15);
  Tracker.taint_source ~kind:"GPS" ta ~pid:1 (r 10 30);
  Tracker.taint_source ~kind:"SMS" ta ~pid:1 (r 100 115);
  Tracker.observe ta (ev 1 (Event.Load (r 12 13)) 1);
  Tracker.observe ta (ev 1 (Event.Store (r 200 203)) 2);
  let ((tb, pb) as b) = pair () in
  Tracker.restore tb (Tracker.persist ta);
  List.iter
    (fun (t, _) ->
      Tracker.taint_source ~kind:"Mic" t ~pid:1 (r 12 12);
      Tracker.observe t (ev 1 (Event.Store (r 300 303)) 3))
    [ a; b ];
  checkb "restored = uninterrupted: entries" true
    (Provenance.entries pa = Provenance.entries pb);
  checkb "restored = uninterrupted: probes" true
    (Provenance.probes pa = Provenance.probes pb);
  List.iter
    (fun (t, _) ->
      checkb "the store carries the open window's labels" true
        (Tracker.origins_of t ~pid:1 (r 300 303) = [ "GPS"; "IMEI" ]))
    [ a; b ]

(* The sidecar costs no allocation per event: a 120k-event replay
   through a tracker with origins, the events built beforehand and no
   sink queries, allocates at most half a word per event on the
   calling domain.  Window openings, in-window stores and untaints all
   happen (checked), so each sidecar entry point is on the path. *)
let test_provenance_replay_allocation () =
  let module Rng = Pift_util.Rng in
  let rng = Rng.create 23 in
  let n = 120_000 in
  let p = Provenance.create () in
  let tp = Tracker.create ~prov:p () in
  let pids = Array.of_list prov_pids in
  Array.iter
    (fun pid ->
      Array.iteri
        (fun i label ->
          Tracker.taint_source ~kind:label tp ~pid (Range.of_len (i * 128) 32))
        prov_labels)
    pids;
  let ks = Array.make (Array.length pids) 0 and cur = ref 0 in
  (* A pid runs for 64 events at a time, as the ingest schedule serves
     a tenant a window of seqs at a time. *)
  let events =
    Array.init n (fun seq ->
        if seq mod 64 = 0 then cur := Rng.int rng (Array.length pids);
        ks.(!cur) <- ks.(!cur) + 1;
        let access =
          match Rng.int rng 10 with
          | 0 | 1 | 2 -> Event.Load (Prop.gen_range rng)
          | 3 | 4 | 5 -> Event.Store (Prop.gen_range rng)
          | _ -> Event.Other
        in
        { Event.seq; k = ks.(!cur); pid = pids.(!cur); access })
  in
  let before = Gc.minor_words () in
  Array.iter (Tracker.observe tp) events;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  let s = Tracker.stats tp in
  checkb
    (Printf.sprintf "sidecar on the path (%d tainted loads, %d taints, %d untaints)"
       s.Tracker.tainted_loads s.Tracker.taint_ops s.Tracker.untaint_ops)
    true
    (s.Tracker.tainted_loads > n / 100
    && s.Tracker.taint_ops > n / 100
    && s.Tracker.untaint_ops > n / 100);
  checkb (Printf.sprintf "%.3f minor words per event <= 0.5" words) true
    (words <= 0.5)


(* --- Deferred (buffered) tracking ------------------------------------------ *)

module Deferred = Pift_core.Deferred

(* What the front end forwards to the FIFO: loads and stores (Fig. 5). *)
let defer d (e : Event.t) =
  match e.access with
  | Event.Other -> ()
  | Event.Load r | Event.Store r ->
      Deferred.push d ~load:(Event.is_load e) ~pid:e.pid ~seq:e.seq ~k:e.k r

let test_deferred_equals_online () =
  (* with a big enough buffer, deferred check = online check *)
  let policy = Policy.make ~ni:3 ~nt:2 () in
  let events =
    [ load (r 100 101) 1; other 2; store (r 200 203) 3; store (r 300 301) 9 ]
  in
  let online = Tracker.create ~policy () in
  Tracker.taint_source online ~pid:1 (r 100 110);
  feed online events;
  let d = Deferred.create ~policy ~buffer_size:64 ~drain_batch:4 () in
  Deferred.taint_source d ~pid:1 (r 100 110);
  List.iter (defer d) events;
  checkb "events buffered" true (Deferred.buffered d > 0);
  List.iter
    (fun range ->
      checkb "agrees with online" true
        (Deferred.check d ~pid:1 range = Tracker.is_tainted online ~pid:1 range))
    [ r 200 203; r 300 301; r 100 110 ];
  checki "no drops" 0 (Deferred.dropped d);
  checki "buffer drained by check" 0 (Deferred.buffered d)

let test_deferred_overflow_drops () =
  let d =
    Deferred.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) ~buffer_size:2
      ~drain_batch:1 ()
  in
  Deferred.taint_source d ~pid:1 (r 100 110);
  (* three memory events into a 2-slot buffer: the tainted load (oldest)
     is dropped, so the in-window store is never tainted *)
  List.iter (defer d)
    [ load (r 100 101) 1; other 2; store (r 200 203) 3; store (r 210 211) 4 ];
  checki "one drop" 1 (Deferred.dropped d);
  checkb "taint missed (FN, not FP)" false (Deferred.check d ~pid:1 (r 200 203))

let test_deferred_tick () =
  let d =
    Deferred.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) ~buffer_size:64
      ~drain_batch:2 ()
  in
  List.iter (defer d)
    [ load (r 0 1) 1; store (r 10 11) 2; store (r 20 21) 3 ];
  checki "buffered 3" 3 (Deferred.buffered d);
  Deferred.tick d;
  checki "drained 2" 1 (Deferred.buffered d);
  Deferred.tick d;
  checki "drained all" 0 (Deferred.buffered d)

(* --- Storage -------------------------------------------------------------- *)

let test_storage_basic () =
  let s = Storage.create ~entries:4 () in
  Storage.insert s ~pid:1 (r 100 110);
  checkb "hit" true (Storage.lookup s ~pid:1 (r 105 120));
  checkb "miss" false (Storage.lookup s ~pid:1 (r 200 210));
  checkb "pid miss" false (Storage.lookup s ~pid:2 (r 100 110));
  checki "occupancy" 1 (Storage.occupancy s);
  Storage.remove s ~pid:1 (r 104 106);
  checkb "left piece" true (Storage.lookup s ~pid:1 (r 100 103));
  checkb "cut gone" false (Storage.lookup s ~pid:1 (r 104 106));
  checkb "right piece" true (Storage.lookup s ~pid:1 (r 107 110));
  checki "split occupancy" 2 (Storage.occupancy s)

let test_storage_lru () =
  let s = Storage.create ~entries:2 ~eviction:Storage.Lru_writeback () in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  (* touch the first so the second is older *)
  ignore (Storage.lookup s ~pid:1 (r 0 0));
  Storage.insert s ~pid:1 (r 40 49);
  let st = Storage.stats s in
  checki "one eviction" 1 st.Storage.evictions;
  (* the evicted range is still found through secondary storage *)
  checkb "secondary hit" true (Storage.lookup s ~pid:1 (r 20 29));
  let st = Storage.stats s in
  checki "secondary hits" 1 st.Storage.secondary_hits

let test_storage_drop () =
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  Storage.insert s ~pid:1 (r 40 49);
  let st = Storage.stats s in
  checki "dropped" 1 st.Storage.drops;
  checkb "dropped range lost" false (Storage.lookup s ~pid:1 (r 40 49))

let test_storage_granularity () =
  let s = Storage.create ~entries:8 ~granularity:(Some 4) () in
  Storage.insert s ~pid:1 (r 17 18);
  (* 16-byte blocks: [16,31] becomes tainted *)
  checkb "block overtaint" true (Storage.lookup s ~pid:1 (r 30 30));
  checkb "next block clean" false (Storage.lookup s ~pid:1 (r 32 40))

let test_storage_context_switch () =
  let s = Storage.create ~entries:4 () in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:2 (r 20 29);
  Storage.context_switch s;
  checki "flushed" 0 (Storage.occupancy s);
  checkb "still visible via secondary" true (Storage.lookup s ~pid:1 (r 0 9));
  checkb "pid 2 too" true (Storage.lookup s ~pid:2 (r 20 29))

(* Eviction paths, read off the model's own counters: capacity pressure
   under Lru_writeback must count evictions and writebacks (and keep
   evicted state reachable through secondary hits + promotion), Drop
   must count drops and lose the range, and the occupancy must track
   valid primary entries. *)
let test_storage_lru_eviction_metrics () =
  let s = Storage.create ~entries:2 ~eviction:Storage.Lru_writeback () in
  let stat f = f (Storage.stats s) in
  let evictions (st : Storage.stats) = st.Storage.evictions
  and writebacks (st : Storage.stats) = st.Storage.writebacks
  and secondary_hits (st : Storage.stats) = st.Storage.secondary_hits in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  checkb "no eviction while capacity lasts" true (stat evictions = 0);
  (* touch the first entry so the second is least recently used *)
  checkb "primary hit" true (Storage.lookup s ~pid:1 (r 0 0));
  Storage.insert s ~pid:1 (r 40 49);
  checki "one eviction" 1 (stat evictions);
  checki "eviction wrote back" 1 (stat writebacks);
  checkb "occupancy full" true (Storage.occupancy s = 2);
  (* the evicted range is only in secondary storage now: a lookup is
     a secondary hit and promotes it back, evicting the next LRU *)
  checkb "evicted range still reachable" true
    (Storage.lookup s ~pid:1 (r 20 29));
  checki "secondary hit counted" 1 (stat secondary_hits);
  checki "promotion evicted the next LRU" 2 (stat evictions);
  checki "second writeback" 2 (stat writebacks);
  checki "promotion is an insertion" 4
    (stat (fun st -> st.Storage.insertions));
  (* the newly-evicted range went through the same cycle *)
  checkb "second evicted range still reachable" true
    (Storage.lookup s ~pid:1 (r 0 9));
  checki "second secondary hit" 2 (stat secondary_hits);
  checki "drops never fire under Lru_writeback" 0
    (stat (fun st -> st.Storage.drops));
  checki "every lookup counted" 3 (stat (fun st -> st.Storage.lookups))

let test_storage_drop_metrics () =
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  let stat f = f (Storage.stats s) in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  Storage.insert s ~pid:1 (r 40 49);
  checki "one drop" 1 (stat (fun st -> st.Storage.drops));
  checki "no evictions under Drop" 0 (stat (fun st -> st.Storage.evictions));
  checki "no writebacks under Drop" 0 (stat (fun st -> st.Storage.writebacks));
  checkb "dropped range is lost" false (Storage.lookup s ~pid:1 (r 40 49));
  checkb "no secondary rescue under Drop" true
    (stat (fun st -> st.Storage.secondary_hits) = 0);
  checkb "occupancy stays at capacity" true (Storage.occupancy s = 2);
  checkb "resident ranges survive" true
    (Storage.lookup s ~pid:1 (r 0 9) && Storage.lookup s ~pid:1 (r 20 29))

let test_storage_drop_context_switch () =
  (* a context switch fills the secondary set under Drop too, and a
     lookup must read it there, as the totals do *)
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  let secondary_hits () = (Storage.stats s).Storage.secondary_hits in
  Storage.insert s ~pid:1 (r 0 99);
  Storage.context_switch s;
  checkb "secondary hit under Drop" true (Storage.lookup s ~pid:1 (r 10 19));
  checki "one range" 1 (List.length (Storage.ranges s ~pid:1));
  checki "bytes" 100 (Storage.tainted_bytes s);
  checki "slow lookup counted" 1 (secondary_hits ());
  checkb "promoted: a primary hit next" true
    (Storage.lookup s ~pid:1 (r 10 19));
  checki "no second slow lookup" 1 (secondary_hits ());
  checki "promotion took a slot" 1 (Storage.occupancy s);
  (* a full cache cannot take the range back: it stays secondary *)
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  Storage.insert s ~pid:1 (r 0 99);
  Storage.context_switch s;
  Storage.insert s ~pid:1 (r 200 209);
  Storage.insert s ~pid:1 (r 300 309);
  checkb "hit with a full cache" true (Storage.lookup s ~pid:1 (r 10 19));
  checkb "still held after the refused promotion" true
    (Storage.lookup s ~pid:1 (r 10 19));
  checki "both reads slow" 2 (Storage.stats s).Storage.secondary_hits;
  checki "bytes kept" 120 (Storage.tainted_bytes s)

let test_store_backends () =
  (* the same Store.t contract from the production store, the bytemap
     oracle and the range-cache model *)
  List.iter
    (fun (impl, sets) ->
      let name s = impl ^ ": " ^ s in
      sets.Store.add ~pid:1 (r 0 9);
      sets.Store.add ~pid:2 (r 20 24);
      checkb (name "overlap") true (sets.Store.overlaps ~pid:1 (r 5 6));
      checki (name "bytes across pids") 15 (sets.Store.tainted_bytes ());
      checki (name "count") 2 (sets.Store.range_count ());
      sets.Store.remove ~pid:1 (r 0 9);
      checki (name "bytes after remove") 5 (sets.Store.tainted_bytes ());
      (* each pid is its own address space: bytes two pids both hold
         count once per pid *)
      sets.Store.release_pid ~pid:2;
      sets.Store.add ~pid:1 (r 0 9);
      sets.Store.add ~pid:2 (r 0 19);
      checki (name "overlapping pids: bytes") 30
        (sets.Store.tainted_bytes ());
      checki (name "overlapping pids: count") 2 (sets.Store.range_count ()))
    [
      ("flat", Store.create ());
      ("bytemap", Prop.bytemap_store ());
      ("range cache", Storage.store (Storage.create ()));
    ]

let test_storage_dropped_piece () =
  (* a middle cut needs a second slot; a full Drop cache loses the
     right-hand piece, and the totals say so *)
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  Storage.insert s ~pid:1 (r 0 99);
  Storage.insert s ~pid:1 (r 200 209);
  Storage.remove s ~pid:1 (r 40 49);
  checki "bytes" 50 (Storage.tainted_bytes s);
  checki "ranges" 2 (Storage.range_count s);
  checki "one drop" 1 (Storage.stats s).Storage.drops;
  checkb "held" true
    (Storage.ranges s ~pid:1 = [ r 0 39; r 200 209 ]);
  (* a lost piece stays held where the secondary set still covers it *)
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  Storage.insert s ~pid:1 (r 0 99);
  Storage.context_switch s;
  Storage.insert s ~pid:1 (r 0 99);
  Storage.insert s ~pid:1 (r 200 209);
  Storage.remove s ~pid:1 (r 40 49);
  checki "another drop" 1 (Storage.stats s).Storage.drops;
  checkb "covered piece kept" true
    (Storage.ranges s ~pid:1 = [ r 0 39; r 50 99; r 200 209 ]);
  checki "bytes with the secondary set" 100 (Storage.tainted_bytes s)

let test_hw_model () =
  let report =
    Hw_model.estimate ~total_insns:1_000_000 ~loads:100_000 ~stores:50_000
      ~secondary_hits:100 ()
  in
  checki "events" 150_000 report.Hw_model.pift_events;
  checkb "overhead small" true (report.Hw_model.pift_overhead_pct < 1.0);
  checkb "sw dift big" true (report.Hw_model.sw_dift_overhead_pct > 100.0);
  checkb "reduction" true (report.Hw_model.event_reduction > 6.0)

(* Bounded caches shared by 2-3 pids: 1-8 entries, either eviction
   policy, byte or 4-byte-block granularity.  Op kinds 0-3 add, 4-5
   remove, 6-7 look up, 8 context switch, 9 release the pid.  Ranges
   crowd into [0, 83] so that entries of one pid often overlap (an add
   merges into the first entry it touches and may reach the next). *)
let bounded_gen =
  QCheck2.Gen.(
    let range_gen =
      let* lo = int_range 0 60 in
      let* len = int_range 1 24 in
      return (Range.of_len lo len)
    in
    let* pids = int_range 2 3 in
    let* entries = int_range 1 8 in
    let* eviction = oneofl [ Storage.Lru_writeback; Storage.Drop ] in
    let* granularity = oneofl [ None; Some 2 ] in
    let* ops =
      list_size (int_range 1 60)
        (triple (int_range 1 pids) (int_range 0 9) range_gen)
    in
    return (pids, entries, eviction, granularity, ops))

(* The maximal runs of addresses in [0, 150] that [held] accepts. *)
let runs held =
  let acc = ref [] and start = ref (-1) in
  for x = 0 to 151 do
    if x <= 150 && held x then (if !start < 0 then start := x)
    else if !start >= 0 then begin
      acc := r !start (x - 1) :: !acc;
      start := -1
    end
  done;
  List.rev !acc

(* What the cache says it holds, checked after every op.  Under
   [Lru_writeback] nothing is lost, so totals, per-pid ranges and
   lookups equal an exact store fed the same block-aligned ops.  Under
   [Drop] only a context switch fills the secondary set, and the test
   keeps its own copy of it ([sec]): what the per-byte lookups found at
   each switch, minus later removes and releases, minus each range a
   lookup promoted (a slow hit the cache could place moves the first
   overlapping secondary range into a slot).  A lookup must answer what
   the primary entries and [sec] held before it; each pid's ranges must
   be the runs of bytes a per-byte lookup or [sec] finds, the totals
   their per-pid sums. *)
let bounded_view_agrees (pids, entries, eviction, granularity, ops) =
  let cache = Storage.create ~entries ~eviction ~granularity () in
  let exact = Store.create () and sec = Store.create () in
  let align x =
    match granularity with
    | None -> x
    | Some g ->
        let b = 1 lsl g in
        r (Range.lo x / b * b) (((Range.hi x / b) + 1) * b - 1)
  in
  let all = List.init pids (fun i -> i + 1) in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 all in
  let look pid x =
    let before = Storage.stats cache in
    let hit = Storage.lookup cache ~pid x in
    let after = Storage.stats cache in
    if
      eviction = Storage.Drop
      && after.Storage.secondary_hits > before.Storage.secondary_hits
      && after.Storage.drops = before.Storage.drops
    then
      Option.iter (sec.Store.remove ~pid)
        (List.find_opt (Range.overlaps (align x)) (sec.Store.ranges ~pid));
    hit
  in
  let primary p = runs (fun x -> look p (Range.byte x)) in
  let held p =
    runs (fun x ->
        look p (Range.byte x) || sec.Store.overlaps ~pid:p (Range.byte x))
  in
  List.for_all
    (fun (pid, op, range) ->
      let answered =
        match op with
        | 0 | 1 | 2 | 3 ->
            Storage.insert cache ~pid range;
            exact.Store.add ~pid (align range);
            true
        | 4 | 5 ->
            Storage.remove cache ~pid range;
            exact.Store.remove ~pid (align range);
            sec.Store.remove ~pid (align range);
            true
        | 6 | 7 -> (
            match eviction with
            | Storage.Lru_writeback ->
                Storage.lookup cache ~pid range
                = exact.Store.overlaps ~pid (align range)
            | Storage.Drop ->
                let before = held pid in
                look pid range
                = List.exists (Range.overlaps (align range)) before)
        | 8 ->
            if eviction = Storage.Drop then
              List.iter
                (fun p -> List.iter (sec.Store.add ~pid:p) (primary p))
                all;
            Storage.context_switch cache;
            true
        | _ ->
            Storage.release_pid cache ~pid;
            exact.Store.release_pid ~pid;
            sec.Store.release_pid ~pid;
            true
      in
      answered
      &&
      match eviction with
      | Storage.Lru_writeback ->
          Storage.tainted_bytes cache = exact.Store.tainted_bytes ()
          && Storage.range_count cache = exact.Store.range_count ()
          && List.for_all
               (fun p ->
                 Storage.ranges cache ~pid:p = exact.Store.ranges ~pid:p)
               all
      | Storage.Drop ->
          List.for_all (fun p -> Storage.ranges cache ~pid:p = held p) all
          && Storage.tainted_bytes cache
             = sum (fun p ->
                   List.fold_left
                     (fun acc x -> acc + Range.length x)
                     0 (held p))
          && Storage.range_count cache = sum (fun p -> List.length (held p)))
    ops

(* Differential property: an unbounded hardware cache answers overlap
   queries exactly like the software range set; bounded ones report
   what they hold ({!bounded_view_agrees}). *)
let prop_storage_store_agreement =
  QCheck2.Test.make
    ~name:"unbounded range cache agrees with the exact range set"
    ~count:500
    QCheck2.Gen.(pair (list_size (int_range 1 60) op_gen) bounded_gen)
    (fun (ops, bounded) ->
      let exact = Store.create () in
      let cache = Storage.store (Storage.create ~entries:4096 ()) in
      let ok = ref true in
      List.iter
        (fun (op, range) ->
          match op with
          | 0 ->
              exact.Store.add ~pid:1 range;
              cache.Store.add ~pid:1 range
          | 1 ->
              exact.Store.remove ~pid:1 range;
              cache.Store.remove ~pid:1 range
          | _ ->
              if
                exact.Store.overlaps ~pid:1 range
                <> cache.Store.overlaps ~pid:1 range
              then ok := false)
        ops;
      (* final per-byte agreement *)
      for x = 0 to 150 do
        if
          exact.Store.overlaps ~pid:1 (Range.byte x)
          <> cache.Store.overlaps ~pid:1 (Range.byte x)
        then ok := false
      done;
      !ok && bounded_view_agrees bounded)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_range_set_model; prop_tracker_reference;
      prop_storage_store_agreement; prop_nt_sharing; prop_ni_band;
    ]

let () =
  Alcotest.run "pift_core"
    [
      ("policy", [ Alcotest.test_case "validation" `Quick test_policy ]);
      ( "range_set",
        [
          Alcotest.test_case "basics" `Quick test_range_set_basic;
          Alcotest.test_case "coalescing" `Quick test_range_set_coalesce;
          Alcotest.test_case "removal" `Quick test_range_set_remove;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "window" `Quick test_tracker_window;
          Alcotest.test_case "NT cap" `Quick test_tracker_nt_cap;
          Alcotest.test_case "window restart" `Quick
            test_tracker_window_restart;
          Alcotest.test_case "untaint switch" `Quick
            test_tracker_untaint_disabled;
          Alcotest.test_case "untaint dip in occupancy" `Quick
            test_tracker_untaint_range_records_dip;
          Alcotest.test_case "per-pid state" `Quick test_tracker_per_pid;
          Alcotest.test_case "10-event stats" `Quick
            test_tracker_ten_event_counts;
        ] );
      ("differential", qsuite);
      ( "provenance",
        [
          Alcotest.test_case "labels" `Quick test_provenance_labels;
          Alcotest.test_case "union & untaint" `Quick
            test_provenance_union_and_untaint;
          Alcotest.test_case "NT cap with merged labels" `Quick
            test_provenance_nt_cap_merged_labels;
          Alcotest.test_case "entries sorted" `Quick
            test_provenance_entries_sorted;
          Alcotest.test_case "label sets after windows & untaint" `Quick
            test_provenance_label_sets;
          Alcotest.test_case "union = tracker per step, across a restore"
            `Quick test_provenance_union_per_step;
          Alcotest.test_case "origins = per-label model per step" `Quick
            test_origins_oracle;
          Alcotest.test_case "label registered mid-window stays out" `Quick
            test_origins_mid_window_label;
          Alcotest.test_case "in-window store after a restore" `Quick
            test_origins_store_after_restore;
          Alcotest.test_case "replay allocates <= 0.5 words per event" `Quick
            test_provenance_replay_allocation;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "equals online" `Quick test_deferred_equals_online;
          Alcotest.test_case "overflow drops" `Quick
            test_deferred_overflow_drops;
          Alcotest.test_case "tick" `Quick test_deferred_tick;
        ] );
      ( "storage",
        [
          Alcotest.test_case "basics" `Quick test_storage_basic;
          Alcotest.test_case "LRU writeback" `Quick test_storage_lru;
          Alcotest.test_case "drop policy" `Quick test_storage_drop;
          Alcotest.test_case "granularity" `Quick test_storage_granularity;
          Alcotest.test_case "context switch" `Quick
            test_storage_context_switch;
          Alcotest.test_case "LRU eviction metrics" `Quick
            test_storage_lru_eviction_metrics;
          Alcotest.test_case "drop metrics" `Quick test_storage_drop_metrics;
          Alcotest.test_case "dropped piece leaves the totals" `Quick
            test_storage_dropped_piece;
          Alcotest.test_case "drop context switch" `Quick
            test_storage_drop_context_switch;
        ] );
      ( "store & model",
        [
          Alcotest.test_case "backends" `Quick test_store_backends;
          Alcotest.test_case "hw model" `Quick test_hw_model;
        ] );
    ]
