(* Tests for Pift_trace: events, trace storage, and the §2 statistics
   (validated against naive recomputations on hand-built streams). *)

module Range = Pift_util.Range
module Event = Pift_trace.Event
module Trace = Pift_trace.Trace
module Stats = Pift_trace.Stats
module Histogram = Pift_util.Histogram

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ev ?(pid = 1) k access =
  { Event.seq = k; k; pid; access }

let load ?pid k lo len = ev ?pid k (Event.Load (Range.of_len lo len))
let store ?pid k lo len = ev ?pid k (Event.Store (Range.of_len lo len))
let other ?pid k = ev ?pid k Event.Other

let of_list events =
  let t = Trace.create () in
  List.iter (Per_event.add t) events;
  t

let rows_of t =
  let n = ref 0 in
  Trace.iter_rows (fun _ _ -> incr n) t;
  !n

let events_of t =
  let acc = ref [] in
  Trace.iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let test_event_meta () =
  checkb "load" true (Event.is_load (load 1 0 4));
  checkb "store" true (Event.is_store (store 1 0 4));
  checkb "other neither" true
    ((not (Event.is_load (other 1))) && not (Event.is_store (other 1)));
  (match Event.range (load 1 16 4) with
  | Some r -> checki "range lo" 16 (Range.lo r)
  | None -> Alcotest.fail "range expected");
  checkb "other has no range" true (Event.range (other 1) = None)

let test_trace_storage () =
  let t = of_list [ load 1 0 4; other 2; store 3 8 2; load 4 0 4 ] in
  checki "length" 4 (Trace.length t);
  checki "loads" 2 (Trace.loads t);
  checki "stores" 1 (Trace.stores t);
  checki "third event" 3 (List.nth (events_of t) 2).Event.k;
  let seen = ref 0 in
  Trace.iter (fun _ -> incr seen) t;
  checki "iter visits all" 4 !seen;
  (* growth beyond the initial capacity *)
  let big = Trace.create () in
  for i = 1 to 5000 do
    Per_event.add big (other i)
  done;
  checki "grows" 5000 (Trace.length big);
  checki "one consecutive run is one row" 1 (rows_of big);
  (* rows over several chunks: no two events fold *)
  let events =
    List.init 20_000 (fun i ->
        if i mod 2 = 0 then load ~pid:(1 + (i mod 3)) i (i mod 64) 4
        else other ~pid:(1 + (i mod 3)) i)
  in
  let t = of_list events in
  checki "rows" 20_000 (rows_of t);
  let seen = ref [] in
  Trace.iter (fun e -> seen := e :: !seen) t;
  checkb "iter across chunks" true (List.rev !seen = events);
  (* a trimmed trace reads the same and still grows *)
  Trace.trim t;
  let more = List.init 5000 (fun i -> store (20_000 + i) 8 4) in
  List.iter (Per_event.add t) more;
  checkb "trimmed, then grown" true
    (events_of t = events @ more)

(* [sink] keeps each instruction beside its event, also across chunks;
   [add] keeps none, and a trace is one kind or the other. *)
let test_trace_instructions () =
  let module Insn = Pift_arm.Insn in
  let insn i = Insn.Mov (Pift_arm.Reg.R0, Insn.Imm i) in
  let recorded = Trace.create () in
  checkb "empty trace has its (no) instructions" true
    (Trace.has_insns recorded);
  for i = 1 to 9000 do
    Trace.sink recorded (insn i) (other i)
  done;
  checkb "recorded" true (Trace.has_insns recorded);
  let events = Array.of_list (events_of recorded) in
  checkb "instruction beside its event" true
    (List.for_all
       (fun i ->
         Trace.insn recorded (i - 1) = insn i && events.(i - 1).Event.k = i)
       [ 1; 4095; 4096; 4097; 8192; 8193; 9000 ]);
  let seen = ref 0 in
  Trace.iter
    (fun e ->
      incr seen;
      if e.Event.k <> !seen then Alcotest.failf "iter: event %d out of order" !seen)
    recorded;
  checki "iter visits every chunk" 9000 !seen;
  Trace.trim recorded;
  Trace.sink recorded (insn 9001) (other 9001);
  checkb "instructions survive a trim" true
    (List.for_all
       (fun i -> Trace.insn recorded (i - 1) = insn i)
       [ 1; 4096; 8193; 9000; 9001 ]);
  let invalid what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  invalid "add to a recorded trace" (fun () -> Per_event.add recorded (other 9002));
  let decoded = of_list [ load 1 0 4; other 2 ] in
  checkb "decoded" false (Trace.has_insns decoded);
  invalid "insn of a decoded trace" (fun () -> ignore (Trace.insn decoded 0));
  invalid "sink into a decoded trace" (fun () ->
      Trace.sink decoded Insn.Nop (other 3));
  invalid "insn out of bounds" (fun () -> ignore (Trace.insn recorded 9001))

let test_load_store_distance () =
  (* L@1 .. S@4 (d=3), S@6 (d=5), L@7, S@8 (d=1) *)
  let t =
    of_list
      [
        load 1 0 4; other 2; other 3; store 4 8 4; other 5; store 6 8 4;
        load 7 0 4; store 8 8 4;
      ]
  in
  let h = Stats.load_store_distance t in
  checki "n" 3 (Histogram.total h);
  checki "d3" 1 (Histogram.count h 3);
  checki "d5" 1 (Histogram.count h 5);
  checki "d1" 1 (Histogram.count h 1);
  (* stores before any load are skipped *)
  let t2 = of_list [ store 1 0 4; load 2 0 4 ] in
  checki "orphan store skipped" 0 (Histogram.total (Stats.load_store_distance t2))

let test_stores_between_loads () =
  let t =
    of_list
      [ load 1 0 4; store 2 8 4; store 3 8 4; load 4 0 4; load 5 0 4 ]
  in
  let h = Stats.stores_between_loads t in
  checki "pairs" 2 (Histogram.total h);
  checki "two stores once" 1 (Histogram.count h 2);
  checki "zero stores once" 1 (Histogram.count h 0)

let test_load_load_distance () =
  let t = of_list [ load 1 0 4; other 2; load 3 0 4; load 4 0 4 ] in
  let h = Stats.load_load_distance t in
  checki "pairs" 2 (Histogram.total h);
  checki "d2" 1 (Histogram.count h 2);
  checki "d1" 1 (Histogram.count h 1)

let test_stores_in_window () =
  (* L@1 with stores at k=2,3,12; window 5 -> 2 stores; window 11 -> 3 *)
  let t =
    of_list
      [ load 1 0 4; store 2 8 4; store 3 8 4; store 12 8 4; load 13 0 4 ]
  in
  let h5 = Stats.stores_in_window ~ni:5 t in
  checki "first load window 5" 1 (Histogram.count h5 2);
  let h11 = Stats.stores_in_window ~ni:11 t in
  checki "first load window 11" 1 (Histogram.count h11 3);
  (* the second load has no stores after it *)
  checki "empty window" 1 (Histogram.count h5 0);
  Alcotest.check_raises "ni must be positive"
    (Invalid_argument "Stats.stores_in_window: non-positive ni") (fun () ->
      ignore (Stats.stores_in_window ~ni:0 t))

let test_kth_store_distance () =
  let t =
    of_list [ load 1 0 4; store 3 8 4; store 5 8 4; store 9 8 4 ]
  in
  (match Stats.kth_store_distance ~ni:10 ~kth:1 t with
  | Some d -> Alcotest.(check (float 1e-9)) "1st" 2.0 d
  | None -> Alcotest.fail "expected distance");
  (match Stats.kth_store_distance ~ni:10 ~kth:3 t with
  | Some d -> Alcotest.(check (float 1e-9)) "3rd" 8.0 d
  | None -> Alcotest.fail "expected distance");
  (* 3rd store outside a window of 4 *)
  checkb "outside window" true
    (Stats.kth_store_distance ~ni:4 ~kth:3 t = None)

let test_per_pid_isolation () =
  (* pid 2's store must not pair with pid 1's load *)
  let t = of_list [ load ~pid:1 1 0 4; store ~pid:2 1 8 4 ] in
  checki "no cross-pid pairing" 0
    (Histogram.total (Stats.load_store_distance t))

(* Property: load_store_distance against a naive recomputation on random
   single-pid streams. *)
let prop_distance_naive =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (let* kind = int_range 0 2 in
         return kind))
  in
  QCheck2.Test.make ~name:"load-store distance matches naive recompute"
    ~count:300 gen (fun kinds ->
      let events =
        List.mapi
          (fun i kind ->
            let k = i + 1 in
            match kind with
            | 0 -> load k 0 4
            | 1 -> store k 8 4
            | _ -> other k)
          kinds
      in
      let t = of_list events in
      let h = Stats.load_store_distance t in
      (* naive *)
      let naive = Hashtbl.create 16 in
      let last = ref None in
      List.iter
        (fun e ->
          match e.Event.access with
          | Event.Load _ -> last := Some e.Event.k
          | Event.Store _ -> (
              match !last with
              | Some kl ->
                  let d = e.Event.k - kl in
                  Hashtbl.replace naive d
                    (1 + Option.value ~default:0 (Hashtbl.find_opt naive d))
              | None -> ())
          | Event.Other -> ())
        events;
      Hashtbl.fold (fun d n ok -> ok && Histogram.count h d = n) naive true
      && Histogram.total h = Hashtbl.fold (fun _ n acc -> acc + n) naive 0)

(* Round trip through the rows: random streams of non-memory runs (with
   and without consecutive seq and k, so some fold into one counted row
   and some may not), pid switches, and loads and stores drawn from a
   small pool of ranges so they reuse interned ones.  [iter] must give
   back exactly the events added, and the counts must agree with the
   list. *)
let range_pool =
  Array.init 6 (fun i -> Range.of_len (8 * (i mod 3)) (1 + (i / 3 * 3)))

let events_gen =
  QCheck2.Gen.(
    let step_g =
      let* pid = frequency [ (6, return 0); (1, int_range 1 2) ] in
      let* kind = int_range 0 9 in
      let* dseq =
        frequency [ (8, return 1); (1, return 0); (1, int_range 2 5) ]
      in
      let* dk = frequency [ (8, return 1); (1, int_range 2 5) ] in
      let* range = int_range 0 (Array.length range_pool - 1) in
      return (pid, kind, dseq, dk, range)
    in
    let* steps = list_size (int_range 0 300) step_g in
    let seq = ref 0 and ks = Array.make 3 0 in
    return
      (List.map
         (fun (pid, kind, dseq, dk, range) ->
           seq := !seq + dseq;
           ks.(pid) <- ks.(pid) + dk;
           let access =
             if kind < 6 then Event.Other
             else if kind < 8 then Event.Load range_pool.(range)
             else Event.Store range_pool.(range)
           in
           { Event.seq = !seq; k = ks.(pid); pid = pid + 1; access })
         steps))

let print_events events =
  String.concat "; "
    (List.map
       (fun (e : Event.t) ->
         Printf.sprintf "%s@%d/k%d/p%d"
           (match e.access with
           | Event.Other -> "O"
           | Event.Load r -> "L" ^ Range.to_string r
           | Event.Store r -> "S" ^ Range.to_string r)
           e.seq e.k e.pid)
       events)

let prop_round_trip =
  QCheck2.Test.make ~name:"rows give back the events added" ~count:500
    ~print:print_events events_gen (fun events ->
      let t = of_list events in
      let iterated = ref [] in
      Trace.iter (fun e -> iterated := e :: !iterated) t;
      let n = List.length events in
      List.rev !iterated = events
      && Trace.length t = n
      && Trace.loads t = List.length (List.filter Event.is_load events)
      && Trace.stores t = List.length (List.filter Event.is_store events)
      && rows_of t <= n)

(* [Recorded.replay] walks the rows (one [on_other ~n] per counted row
   or part of one); [Per_event.interleave] feeding [Tracker.observe] is
   the per-event walk.  Markers land at
   random seqs, inside counted runs too, and must leave verdicts,
   origins and stats equal. *)
module Recorded = Pift_eval.Recorded
module Tracker = Pift_core.Tracker
module Policy = Pift_core.Policy

let replay_gen =
  QCheck2.Gen.(
    let* events = events_gen in
    let last = List.fold_left (fun _ (e : Event.t) -> e.seq) 0 events in
    let marker_g =
      let* seq = int_range 0 (last + 1) in
      let* source = bool in
      let* a = int_range 0 (Array.length range_pool - 1) in
      let* b = int_range 0 (Array.length range_pool - 1) in
      let* kind = oneofl [ "IMEI"; "GPS" ] in
      return
        ( seq,
          if source then Recorded.Source { kind; range = range_pool.(a) }
          else
            Recorded.Sink { kind; ranges = [ range_pool.(a); range_pool.(b) ] }
        )
    in
    let* markers = list_size (int_range 0 12) marker_g in
    let* ni = int_range 1 8 in
    let* nt = int_range 1 4 in
    let* untaint = bool in
    let markers = List.stable_sort (fun (a, _) (b, _) -> compare a b) markers in
    return (events, markers, Policy.make ~untaint ~ni ~nt ()))

let prop_replay_rows =
  QCheck2.Test.make ~name:"row replay = per-event observe walk" ~count:500
    ~print:(fun (events, markers, policy) ->
      Printf.sprintf "%s; markers at [%s]; %s" (print_events events)
        (String.concat "; " (List.map (fun (s, _) -> string_of_int s) markers))
        (Policy.to_string policy))
    replay_gen
    (fun (events, markers, policy) ->
      let r =
        {
          Recorded.name = "prop";
          trace = of_list events;
          markers = Array.of_list markers;
          pid = 1;
          bytecodes = 0;
          frag_hits = 0;
          frag_misses = 0;
        }
      in
      let rows = Recorded.replay ~with_origins:true ~policy r in
      let prov = Pift_core.Provenance.create () in
      let tracker = Tracker.create ~policy ~prov () in
      let verdicts = ref [] and origins = ref [] in
      Per_event.interleave r ~observe:(Tracker.observe tracker)
        ~on_marker:(fun _ -> function
          | Recorded.Source { kind; range } ->
              Tracker.taint_source ~kind tracker ~pid:1 range
          | Recorded.Sink { kind; ranges } ->
              let flagged =
                List.exists
                  (fun q -> Tracker.is_tainted tracker ~pid:1 q)
                  ranges
              in
              verdicts := { Recorded.kind; flagged } :: !verdicts;
              origins :=
                {
                  Recorded.ov_kind = kind;
                  ov_flagged = flagged;
                  ov_origins =
                    List.sort_uniq String.compare
                      (List.concat_map
                         (fun q -> Tracker.origins_of tracker ~pid:1 q)
                         ranges);
                }
                :: !origins);
      rows.Recorded.verdicts = List.rev !verdicts
      && rows.Recorded.origins = List.rev !origins
      && rows.Recorded.stats = Tracker.stats tracker)

(* [Recorded.walk] splits a counted row where a marker falls inside it,
   so, expanded per event, it must give exactly the per-event oracle's
   order of events and markers; and both trace formats must give back
   every event and marker.  Markers fall before the first event, on
   events (inside counted runs too), between them and after the last,
   in any order. *)
let walk_gen =
  QCheck2.Gen.(
    let* events = events_gen in
    let seqs = List.map (fun (e : Event.t) -> e.seq) events in
    let first = List.fold_left min 0 seqs
    and last = List.fold_left max 0 seqs in
    let seq_g =
      frequency
        [
          (1, int_range (first - 2) first);
          (4, if seqs = [] then return 0 else oneofl seqs);
          (2, int_range first (last + 1));
          (1, int_range (last + 1) (last + 3));
        ]
    in
    let marker_g =
      let* seq = seq_g in
      let* a = int_range 0 (Array.length range_pool - 1) in
      let* kind = oneofl [ "IMEI"; "G PS%" ] in
      let* source = bool in
      return
        ( seq,
          if source then Recorded.Source { kind; range = range_pool.(a) }
          else Recorded.Sink { kind; ranges = [ range_pool.(a) ] } )
    in
    let* markers = list_size (int_range 0 12) marker_g in
    return (events, markers))

(* One path for every case, removed at exit.  Each save writes a new
   file ([Tmp_file] says why). *)
let walk_file =
  lazy
    (let path = Tmp_file.path "pift_walk" ".pift" in
     at_exit (fun () -> Tmp_file.remove path);
     path)

let prop_walk_oracle =
  QCheck2.Test.make ~name:"walk = per-event order, and both formats round-trip"
    ~count:300
    ~print:(fun (events, markers) ->
      Printf.sprintf "%s; markers at [%s]" (print_events events)
        (String.concat "; " (List.map (fun (s, _) -> string_of_int s) markers)))
    walk_gen
    (fun (events, markers) ->
      let r =
        {
          Recorded.name = "walk";
          trace = of_list events;
          markers = Array.of_list markers;
          pid = 1;
          bytecodes = 0;
          frag_hits = 0;
          frag_misses = 0;
        }
      in
      let walked = ref [] in
      Recorded.walk r
        ~row:(fun rows o ->
          for j = 0 to Pift_trace.Row.count rows o - 1 do
            walked :=
              Recorded.Item_event (Trace.event r.trace rows o j) :: !walked
          done)
        ~marker:(fun seq m -> walked := Recorded.Item_marker (seq, m) :: !walked);
      let round_trips format =
        let path = Lazy.force walk_file in
        Tmp_file.remove path;
        Pift_eval.Trace_io.save ~format r path;
        let loaded = Pift_eval.Trace_io.load path in
        events_of loaded.Recorded.trace = events
        && loaded.Recorded.markers = r.markers
      in
      List.rev !walked = Per_event.items r
      && round_trips Pift_eval.Trace_io.Text
      && round_trips Pift_eval.Trace_io.Binary)

(* [Recorded.replay_grid] shares replays over rectangles of the grid
   (Tracker.ni_floor x Tracker.depth): for unsorted [nis] and [nts] with
   repeats it must answer every distinct cell, ascending, with exactly
   what a replay of its own at (NI, NT) gives — verdicts, origins and
   stats — and run at most one replay per distinct cell. *)
let grid_gen =
  QCheck2.Gen.(
    let* events, markers, policy = replay_gen in
    let* nis = list_size (int_range 1 8) (int_range 1 12) in
    let* nts = list_size (int_range 1 6) (int_range 1 8) in
    return (events, markers, policy.Policy.untaint, nis, nts))

let prop_replay_grid =
  QCheck2.Test.make ~name:"grid walk = one replay per cell" ~count:500
    ~print:(fun (events, markers, untaint, nis, nts) ->
      let ints l = String.concat "; " (List.map string_of_int l) in
      Printf.sprintf "%s; markers at [%s]; untaint %b; nis [%s]; nts [%s]"
        (print_events events)
        (ints (List.map fst markers))
        untaint (ints nis) (ints nts))
    grid_gen
    (fun (events, markers, untaint, nis, nts) ->
      let r =
        {
          Recorded.name = "prop";
          trace = of_list events;
          markers = Array.of_list markers;
          pid = 1;
          bytecodes = 0;
          frag_hits = 0;
          frag_misses = 0;
        }
      in
      let grid =
        Recorded.replay_grid ~with_origins:true ~untaint ~nis ~nts r
      in
      let cells =
        List.concat_map
          (fun ni -> List.map (fun nt -> (ni, nt)) (List.sort_uniq compare nts))
          (List.sort_uniq compare nis)
      in
      List.map fst grid.Recorded.answers = cells
      && List.for_all
           (fun ((ni, nt), got) ->
             got
             = Recorded.replay ~with_origins:true
                 ~policy:(Policy.make ~untaint ~ni ~nt ()) r)
           grid.Recorded.answers
      && grid.Recorded.replays >= 1
      && grid.Recorded.replays <= List.length cells)

let () =
  Alcotest.run "pift_trace"
    [
      ( "events & storage",
        [
          Alcotest.test_case "event metadata" `Quick test_event_meta;
          Alcotest.test_case "trace storage" `Quick test_trace_storage;
          Alcotest.test_case "recorded instructions" `Quick
            test_trace_instructions;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "load-store distance" `Quick
            test_load_store_distance;
          Alcotest.test_case "stores between loads" `Quick
            test_stores_between_loads;
          Alcotest.test_case "load-load distance" `Quick
            test_load_load_distance;
          Alcotest.test_case "stores in window" `Quick test_stores_in_window;
          Alcotest.test_case "k-th store distance" `Quick
            test_kth_store_distance;
          Alcotest.test_case "per-pid isolation" `Quick
            test_per_pid_isolation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_distance_naive;
          QCheck_alcotest.to_alcotest prop_round_trip;
          QCheck_alcotest.to_alcotest prop_replay_rows;
          QCheck_alcotest.to_alcotest prop_walk_oracle;
          QCheck_alcotest.to_alcotest prop_replay_grid;
        ] );
    ]
