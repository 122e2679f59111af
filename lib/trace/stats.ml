module Histogram = Pift_util.Histogram

(* Per-pid folding over the load and store rows: [f state ~load k],
   where state is created per process on first sight; the table of
   final states is returned.  No statistic reads a counted row. *)
let fold_per_pid ~init ~f trace =
  let states = Hashtbl.create 4 in
  Trace.iter_rows
    (fun rows o ->
      let tag = rows.(o) in
      if tag <> Row.tag_other then begin
        let pid = rows.(o + 1) in
        let state =
          match Hashtbl.find_opt states pid with
          | Some s -> s
          | None ->
              let s = ref (init ()) in
              Hashtbl.add states pid s;
              s
        in
        state := f !state ~load:(tag = Row.tag_load) rows.(o + 3)
      end)
    trace;
  states

(* A histogram filled by a per-pid fold. *)
let histogram ~init f trace =
  let h = Histogram.create () in
  ignore (fold_per_pid ~init ~f:(f (Histogram.add h)) trace);
  h

let load_store_distance =
  histogram ~init:(fun () -> None) (fun add last ~load k ->
      if load then Some k
      else (Option.iter (fun k_l -> add (k - k_l)) last; last))

let stores_between_loads =
  histogram ~init:(fun () -> (false, 0)) (fun add (seen_load, count) ~load _ ->
      if not load then (seen_load, count + 1)
      else (if seen_load then add count; (true, 0)))

let load_load_distance =
  histogram ~init:(fun () -> None) (fun add last ~load k ->
      if load then (Option.iter (fun k_l -> add (k - k_l)) last; Some k)
      else last)

(* Per-pid sorted arrays of load and store counters, for window lookups. *)
let memory_counters trace =
  let f (loads, stores) ~load k =
    if load then (k :: loads, stores) else (loads, k :: stores)
  in
  let arr l = Array.of_list (List.rev l) in
  Hashtbl.fold
    (fun _pid { contents = loads, stores } acc -> (arr loads, arr stores) :: acc)
    (fold_per_pid ~init:(fun () -> ([], [])) ~f trace)
    []

(* Index of the first element of sorted [a] strictly greater than [v]. *)
let upper_bound a v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

let stores_in_window ~ni trace =
  if ni <= 0 then invalid_arg "Stats.stores_in_window: non-positive ni";
  let h = Histogram.create () in
  let per_pid (loads, stores) =
    let count_for k_l =
      let first = upper_bound stores k_l in
      let after = upper_bound stores (k_l + ni) in
      Histogram.add h (after - first)
    in
    Array.iter count_for loads
  in
  List.iter per_pid (memory_counters trace);
  h

let kth_store_distance ~ni ~kth trace =
  if ni <= 0 then invalid_arg "Stats.kth_store_distance: non-positive ni";
  if kth <= 0 then invalid_arg "Stats.kth_store_distance: non-positive kth";
  let sum = ref 0 and n = ref 0 in
  let per_pid (loads, stores) =
    let measure k_l =
      let first = upper_bound stores k_l in
      let idx = first + kth - 1 in
      if idx < Array.length stores && stores.(idx) - k_l <= ni then begin
        sum := !sum + (stores.(idx) - k_l);
        incr n
      end
    in
    Array.iter measure loads
  in
  List.iter per_pid (memory_counters trace);
  if !n = 0 then None else Some (float_of_int !sum /. float_of_int !n)
