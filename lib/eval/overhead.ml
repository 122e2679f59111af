module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Series = Pift_util.Series

type point = {
  ni : int;
  nt : int;
  untaint : bool;
  max_tainted_bytes : int;
  max_ranges : int;
  taint_ops : int;
  untaint_ops : int;
}

let point ~untaint ((ni, nt), (replay : Recorded.replay)) =
  let s = replay.Recorded.stats in
  {
    ni;
    nt;
    untaint;
    max_tainted_bytes = s.Tracker.max_tainted_bytes;
    max_ranges = s.Tracker.max_ranges;
    taint_ops = s.Tracker.taint_ops;
    untaint_ops = s.Tracker.untaint_ops;
  }

let measure ?(untaint = true) recorded ~ni ~nt =
  let policy = Policy.make ~untaint ~ni ~nt () in
  point ~untaint ((ni, nt), Recorded.replay ~policy recorded)

let default_nis = List.init 20 (fun i -> i + 1)
let default_nts = List.init 10 (fun i -> i + 1)

(* [walk ... u]: the points of [nis] x [nts] at the [u]th untaint
   setting of [untaints], ascending by (ni, nt).  One work item per
   (untaint setting, NI band), highest band first since high NIs cost
   most, walks its band with Recorded.replay_grid against the shared
   read-only recording; with tracing on, the walk is a span named
   [name untaint lo hi] holding one pair of samples per point. *)
let walk ~rings ~jobs ~name ~untaints recorded ~nis ~nts =
  let bands = List.rev (Recorded.ni_bands nis) in
  let items =
    Array.of_list
      (List.concat_map
         (fun untaint -> List.map (fun band -> (untaint, band)) bands)
         untaints)
  in
  let walks =
    Pift_par.Pool.with_pool ~jobs ~rings (fun pool ->
        Pift_par.Pool.map_slots pool
          ~f:(fun ~worker _ (untaint, band) ->
            let grid () =
              List.map (point ~untaint)
                (Recorded.replay_grid ~untaint ~nis:band ~nts recorded)
                  .Recorded.answers
            in
            if worker >= Array.length rings then grid ()
            else begin
              let r = rings.(worker) in
              let name =
                name untaint (List.hd band)
                  (List.nth band (List.length band - 1))
              in
              Pift_obs.Flight.begin_ r name;
              let points = grid () in
              List.iter
                (fun p ->
                  Pift_obs.Flight.sample r "max_tainted_bytes"
                    (float_of_int p.max_tainted_bytes);
                  Pift_obs.Flight.sample r "max_ranges"
                    (float_of_int p.max_ranges))
                points;
              Pift_obs.Flight.end_ r name;
              points
            end)
          items)
  in
  let nb = List.length bands in
  fun u ->
    List.concat (List.init nb (fun b -> walks.((u * nb) + nb - 1 - b)))

let grid ?(nis = default_nis) ?(nts = default_nts) ?(rings = [||])
    ?(jobs = 1) recorded =
  walk ~rings ~jobs
    ~name:(fun _ lo hi -> Printf.sprintf "grid(%d-%d)" lo hi)
    ~untaints:[ true ] recorded ~nis ~nts 0

(* Figs. 15/16 read the tracker after every row and marker of the
   recording's walk.  A load, store or marker changes occupancy at most
   once and the op count by at most one, and a counted row changes
   neither, so sampling on change, stamped with the last event's seq,
   keeps every step of both curves.  Both start from an implicit 0. *)
let series recorded ~ni ~nt =
  let tracker = Tracker.create ~policy:(Policy.make ~ni ~nt ()) () in
  let bytes = Series.create ~name:"tainted bytes" () in
  let ops = Series.create ~name:"taint+untaint ops" () in
  let sample s ~time value =
    if value <> Option.value (Series.last_value s) ~default:0 then
      Series.record s ~time ~value
  in
  let time = ref 0 in
  let sample_both () =
    let s = Tracker.stats tracker in
    sample bytes ~time:!time (Tracker.current_tainted_bytes tracker);
    sample ops ~time:!time (s.Tracker.taint_ops + s.Tracker.untaint_ops)
  in
  Recorded.walk recorded
    ~row:(fun rows o ->
      Recorded.track tracker recorded.Recorded.trace rows o;
      time := rows.(o + 2);
      sample_both ())
    ~marker:(fun _ m ->
      (match m with
      | Recorded.Source { kind; range } ->
          Tracker.taint_source ~kind tracker ~pid:recorded.Recorded.pid range
      | Recorded.Sink _ -> ());
      sample_both ());
  (Series.downsample bytes 72, Series.downsample ops 72)

let untaint_effect ?(rings = [||]) ?(jobs = 1) recorded ~nis ~nt =
  let points =
    walk ~rings ~jobs
      ~name:(fun untaint lo hi ->
        Printf.sprintf "untaint-%s(%d-%d,%d)"
          (if untaint then "on" else "off")
          lo hi nt)
      ~untaints:[ true; false ] recorded ~nis ~nts:[ nt ]
  in
  List.map2 (fun on off -> (on.ni, on, off)) (points 0) (points 1)

let render_grid ~title ~metric points ppf () =
  let nis = List.sort_uniq Int.compare (List.map (fun p -> p.ni) points) in
  let nts = List.sort_uniq Int.compare (List.map (fun p -> p.nt) points) in
  (* One pass to index the points: List.find per heatmap cell made the
     render O(cells^2). *)
  let index = Hashtbl.create (List.length points) in
  List.iter (fun p -> Hashtbl.replace index (p.ni, p.nt) p) points;
  let find ni nt =
    match Hashtbl.find_opt index (ni, nt) with
    | Some p -> p
    | None -> invalid_arg "Overhead.render_grid: (ni, nt) not in the grid"
  in
  Pift_util.Textplot.heatmap ~title ~row_label:"NT" ~col_label:"NI" ~rows:nts
    ~cols:nis
    (fun ~row ~col -> float_of_int (metric (find col row)))
    ppf ()

let render_series ~title ~log_scale curves ppf () =
  Pift_util.Textplot.series ~log_scale ~title curves ppf ();
  (* Numeric companion table: each curve sampled at ~8 common points. *)
  let tmax =
    List.fold_left
      (fun acc (_, pts) ->
        List.fold_left (fun acc (t, _) -> max acc t) acc pts)
      1 curves
  in
  let samples = List.init 8 (fun i -> tmax * (i + 1) / 8) in
  Format.fprintf ppf "@[<v>%10s" "t";
  List.iter (fun t -> Format.fprintf ppf "%10d" t) samples;
  Format.fprintf ppf "@,";
  let value_at pts t =
    List.fold_left (fun acc (t', v) -> if t' <= t then v else acc) 0 pts
  in
  List.iter
    (fun (label, pts) ->
      Format.fprintf ppf "%10s" label;
      List.iter (fun t -> Format.fprintf ppf "%10d" (value_at pts t)) samples;
      Format.fprintf ppf "@,")
    curves;
  Format.fprintf ppf "@]@."
