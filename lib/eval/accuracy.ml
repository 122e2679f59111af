module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module App = Pift_workloads.App

type confusion = { tp : int; fp : int; tn : int; fn : int }

let total c = c.tp + c.fp + c.tn + c.fn

let accuracy c =
  if total c = 0 then 0.
  else float_of_int (c.tp + c.tn) /. float_of_int (total c)

let fp_rate c =
  if c.fp + c.tn = 0 then 0. else float_of_int c.fp /. float_of_int (c.fp + c.tn)

let fn_rate c =
  if c.fn + c.tp = 0 then 0. else float_of_int c.fn /. float_of_int (c.fn + c.tp)

type sweep = {
  apps : int;
  nis : int list;
  nts : int list;
  cells : ((int * int) * confusion) list;
  replays : int;
  trace_insns : int list;
}

let classify ~leaky ~flagged c =
  match (leaky, flagged) with
  | true, true -> { c with tp = c.tp + 1 }
  | true, false -> { c with fn = c.fn + 1 }
  | false, true -> { c with fp = c.fp + 1 }
  | false, false -> { c with tn = c.tn + 1 }

let empty = { tp = 0; fp = 0; tn = 0; fn = 0 }

let evaluate ~policy apps =
  List.fold_left
    (fun acc (app : App.t) ->
      let recorded = Recorded.record app in
      let replay = Recorded.replay ~policy recorded in
      classify ~leaky:app.App.leaky ~flagged:replay.Recorded.flagged acc)
    empty apps

(* --- attribution accuracy ----------------------------------------------- *)

type attribution_class = Exact | Over | Under | Mixed

type attribution_row = {
  at_app : string;
  at_check : int;
  at_sink : string;
  at_pift : string list;
  at_dift : string list;
  at_class : attribution_class;
  at_jaccard : float;
}

type attribution = {
  at_rows : attribution_row list;
  at_exact : int;
  at_over : int;
  at_under : int;
  at_mixed : int;
  at_mean_jaccard : float;
}

let class_label = function
  | Exact -> "exact"
  | Over -> "over"
  | Under -> "under"
  | Mixed -> "mixed"

(* Sorted-uniq string lists as sets. *)
let subset a b = List.for_all (fun x -> List.mem x b) a

let classify_sets ~pift ~dift =
  if pift = dift then Exact
  else if subset dift pift then Over
  else if subset pift dift then Under
  else Mixed

let jaccard a b =
  match (a, b) with
  | [], [] -> 1.
  | _ ->
      let inter = List.length (List.filter (fun x -> List.mem x b) a) in
      let union =
        List.length (List.sort_uniq String.compare (List.rev_append a b))
      in
      float_of_int inter /. float_of_int union

(* The attribution question: when both trackers flag a sink (a true
   positive), does PIFT's predicted origin set name the same sources the
   exact full-DIFT replay does?  Over-attribution (a superset) is the
   expected failure mode of window-based prediction; under-attribution
   would mean a real source went missing. *)
let attribution ~policy apps =
  let rows =
    List.concat_map
      (fun (app : App.t) ->
        let recorded = Recorded.record app in
        let replay =
          Recorded.replay ~with_origins:true ~policy recorded
        in
        let dift = Recorded.replay_dift ~with_origins:true recorded in
        List.concat
          (List.mapi
             (fun i
                  ((p : Recorded.origin_verdict),
                   (d : Recorded.origin_verdict)) ->
               if p.Recorded.ov_flagged && d.Recorded.ov_flagged then
                 let pift = p.Recorded.ov_origins
                 and dift = d.Recorded.ov_origins in
                 [
                   {
                     at_app = app.App.name;
                     at_check = i + 1;
                     at_sink = p.Recorded.ov_kind;
                     at_pift = pift;
                     at_dift = dift;
                     at_class = classify_sets ~pift ~dift;
                     at_jaccard = jaccard pift dift;
                   };
                 ]
               else [])
             (List.combine replay.Recorded.origins dift.Recorded.dift_origins)))
      apps
  in
  let count cls =
    List.length (List.filter (fun r -> r.at_class = cls) rows)
  in
  let mean_jaccard =
    match rows with
    | [] -> 0.
    | _ ->
        List.fold_left (fun acc r -> acc +. r.at_jaccard) 0. rows
        /. float_of_int (List.length rows)
  in
  {
    at_rows = rows;
    at_exact = count Exact;
    at_over = count Over;
    at_under = count Under;
    at_mixed = count Mixed;
    at_mean_jaccard = mean_jaccard;
  }

let render_attribution at ppf () =
  let set = function [] -> "-" | l -> String.concat "," l in
  let app_w =
    List.fold_left
      (fun acc r -> max acc (String.length r.at_app))
      (String.length "app") at.at_rows
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Attribution accuracy — PIFT origin sets vs full-DIFT ground truth@,";
  Format.fprintf ppf "%-*s  %-5s  %-6s  %-24s  %-24s  %-6s  %s@," app_w "app"
    "check" "sink" "pift origins" "dift origins" "class" "jaccard";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-*s  %-5d  %-6s  %-24s  %-24s  %-6s  %.2f@," app_w
        r.at_app r.at_check r.at_sink (set r.at_pift) (set r.at_dift)
        (class_label r.at_class) r.at_jaccard)
    at.at_rows;
  Format.fprintf ppf
    "%d true-positive sinks: %d exact, %d over, %d under, %d mixed; mean \
     Jaccard %.3f@,"
    (List.length at.at_rows)
    at.at_exact at.at_over at.at_under at.at_mixed at.at_mean_jaccard;
  Format.fprintf ppf "@]"

let attribution_json at =
  let module Json = Pift_obs.Json in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ( "pift_attribution",
        Json.Obj
          [
            ("sinks", Json.Int (List.length at.at_rows));
            ("exact", Json.Int at.at_exact);
            ("over", Json.Int at.at_over);
            ("under", Json.Int at.at_under);
            ("mixed", Json.Int at.at_mixed);
            ("mean_jaccard", Json.Float at.at_mean_jaccard);
          ] );
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("app", Json.String r.at_app);
                   ("check", Json.Int r.at_check);
                   ("sink", Json.String r.at_sink);
                   ("pift", strings r.at_pift);
                   ("dift", strings r.at_dift);
                   ("class", Json.String (class_label r.at_class));
                   ("jaccard", Json.Float r.at_jaccard);
                 ])
             at.at_rows) );
    ]

let default_nis = List.init 20 (fun i -> i + 1)
let default_nts = List.init 10 (fun i -> i + 1)

(* Recording runs on the pool (each app builds its own VM, trace, and
   heap).  The NIxNT grid then runs on the same pool as one work item
   per (recording, NI band), longest recording first, each a
   Recorded.replay_grid over the shared read-only recording.  A band's
   cells are known once its last walk is in: that walk's worker samples
   and reports them.  The cells themselves are built after the pool
   from the walks, sorted by (ni, nt), so no schedule reaches the
   result. *)
let sweep ?(nis = default_nis) ?(nts = default_nts) ?progress
    ?on_cell ?(rings = [||]) ?(telems = [||]) ?(jobs = 1)
    ?(with_origins = false) apps =
  Pift_par.Pool.with_pool ~jobs ~rings (fun pool ->
      let ring worker =
        if worker < Array.length rings then Some rings.(worker) else None
      in
      (* Telemetry instances follow the same per-slot single-writer
         discipline as rings: each worker only ever touches its own
         slot's instance, so the hot path stays lock-free and the merged
         series are combined after the parallel region. *)
      let telem worker =
        if worker < Array.length telems then Some telems.(worker) else None
      in
      let apps_arr = Array.of_list apps in
      let n = Array.length apps_arr in
      let recorded_count = Atomic.make 0 in
      let progress_mu = Mutex.create () in
      let locked f =
        Mutex.lock progress_mu;
        Fun.protect ~finally:(fun () -> Mutex.unlock progress_mu) f
      in
      let recordings =
        Pift_par.Pool.map_slots pool
          ~f:(fun ~worker _ (app : App.t) ->
            (* Span names are built off the hot path (once per app /
               walk); events themselves stay allocation-free. *)
            let span =
              Option.map
                (fun r ->
                  let name = "record:" ^ app.App.name in
                  Pift_obs.Flight.begin_ r name;
                  (r, name))
                (ring worker)
            in
            let recorded = Recorded.record app in
            (match span with
            | None -> ()
            | Some (r, name) -> Pift_obs.Flight.end_ r name);
            (match progress with
            | None -> ()
            | Some f ->
                let done_ = 1 + Atomic.fetch_and_add recorded_count 1 in
                locked (fun () -> f done_ n));
            recorded)
          apps_arr
      in
      let bands = Array.of_list (Recorded.ni_bands nis) in
      let distinct_nts = List.sort_uniq compare nts in
      let total_cells =
        List.length (List.sort_uniq compare nis) * List.length distinct_nts
      in
      (* [walks.(b).(i)]: recording [i]'s answers over band [b]. *)
      let walks = Array.map (fun _ -> Array.make n [||]) bands in
      let pending = Array.map (fun _ -> Atomic.make n) bands in
      let cells_done = Atomic.make 0 in
      (* Band [b]'s cells, ascending, each with every recording's
         replay at it, in recording order. *)
      let band_cells b =
        List.mapi
          (fun j key ->
            (key, Array.map (fun answers -> snd answers.(j)) walks.(b)))
          (List.concat_map
             (fun ni -> List.map (fun nt -> (ni, nt)) distinct_nts)
             bands.(b))
      in
      let length i = Pift_trace.Trace.length recordings.(i).Recorded.trace in
      let items =
        List.stable_sort
          (fun i j -> compare (length j) (length i))
          (List.init n Fun.id)
        |> List.concat_map (fun i ->
               List.rev (List.init (Array.length bands) (fun b -> (i, b))))
        |> Array.of_list
      in
      let replays =
        Pift_par.Pool.map_slots pool
          ~f:(fun ~worker _ (i, b) ->
            let ring = ring worker in
            let span_name =
              match ring with
              | None -> ""
              | Some r ->
                  let band = bands.(b) in
                  let name =
                    Printf.sprintf "grid:%s(%d-%d)" recordings.(i).Recorded.name
                      (List.hd band)
                      (List.nth band (List.length band - 1))
                  in
                  Pift_obs.Flight.begin_ r name;
                  name
            in
            let g =
              Recorded.replay_grid ?telemetry:(telem worker) ~with_origins
                ~nis:bands.(b) ~nts recordings.(i)
            in
            walks.(b).(i) <- Array.of_list g.Recorded.answers;
            (* The walk that completes its band reports the band's
               cells; the atomic makes every other walk's answers
               visible here. *)
            if Atomic.fetch_and_add pending.(b) (-1) = 1 then begin
              let cells = band_cells b in
              (match ring with
              | None -> ()
              | Some r ->
                  (* Per-cell counter tracks: the worst replay's peak
                     tainted footprint, sampled once per cell so a
                     200-cell sweep cannot flood the ring. *)
                  List.iter
                    (fun (_, replays) ->
                      let peak f =
                        float_of_int
                          (Array.fold_left
                             (fun acc (rp : Recorded.replay) ->
                               max acc (f rp.Recorded.stats))
                             0 replays)
                      in
                      Pift_obs.Flight.sample r "max_tainted_bytes"
                        (peak (fun st -> st.Tracker.max_tainted_bytes));
                      Pift_obs.Flight.sample r "max_ranges"
                        (peak (fun st -> st.Tracker.max_ranges)))
                    cells);
              match on_cell with
              | None -> ()
              | Some f ->
                  locked (fun () ->
                      List.iter
                        (fun _ ->
                          f (1 + Atomic.fetch_and_add cells_done 1) total_cells)
                        cells)
            end;
            (match ring with
            | None -> ()
            | Some r -> Pift_obs.Flight.end_ r span_name);
            g.Recorded.replays)
          items
      in
      let confusion replays =
        let c = ref empty in
        Array.iteri
          (fun i (replay : Recorded.replay) ->
            c :=
              classify ~leaky:apps_arr.(i).App.leaky
                ~flagged:replay.Recorded.flagged !c)
          replays;
        !c
      in
      let trace_insns =
        Array.to_list
          (Array.map
             (fun r -> Pift_trace.Trace.length r.Recorded.trace)
             recordings)
      in
      {
        apps = n;
        nis;
        nts;
        cells =
          List.concat
            (List.init (Array.length bands) (fun b ->
                 List.map
                   (fun (key, replays) -> (key, confusion replays))
                   (band_cells b)));
        replays = Array.fold_left ( + ) 0 replays;
        trace_insns;
      })

let cell sweep ~ni ~nt =
  match List.assoc_opt (ni, nt) sweep.cells with
  | Some c -> c
  | None -> invalid_arg "Accuracy.cell: (ni, nt) outside the sweep"

let misclassified ~policy apps =
  List.filter_map
    (fun (app : App.t) ->
      let recorded = Recorded.record app in
      let replay = Recorded.replay ~policy recorded in
      match (app.App.leaky, replay.Recorded.flagged) with
      | true, false -> Some (app.App.name, `False_negative)
      | false, true -> Some (app.App.name, `False_positive)
      | true, true | false, false -> None)
    apps

let render sweep ppf () =
  (* Index the cells once: a List.assoc per heatmap cell is O(cells^2)
     across the render. *)
  let index = Hashtbl.create (List.length sweep.cells) in
  List.iter (fun (k, c) -> Hashtbl.replace index k c) sweep.cells;
  let cell ~ni ~nt =
    match Hashtbl.find_opt index (ni, nt) with
    | Some c -> c
    | None -> invalid_arg "Accuracy.render: (ni, nt) outside the sweep"
  in
  Pift_util.Textplot.heatmap
    ~title:
      (Printf.sprintf
         "Fig. 11 — accuracy (%%) over %d DroidBench apps, NI columns x NT \
          rows"
         sweep.apps)
    ~row_label:"NT" ~col_label:"NI" ~rows:sweep.nts ~cols:sweep.nis
    (fun ~row ~col -> 100. *. accuracy (cell ~ni:col ~nt:row))
    ppf ()
