(* Continuous telemetry: a bounded ring of periodic snapshots taken
   while a run is in flight, so tainted-byte growth and store occupancy
   become time series instead of end-of-run aggregates.

   One instance per worker slot, single writer (the ring discipline of
   [Flight]): [bump] is the per-event hot path — an integer increment
   and a compare.  Snapshots read the registered sources (closures over
   live tracker/store/storage state); when the ring is full the oldest
   snapshots are overwritten and counted as dropped.  Capacity 0 turns
   recording off: every call is a no-op, the same convention as
   [Flight.create ~capacity:0]. *)

type snapshot = {
  sn_seq : int;  (* snapshots taken before this one *)
  sn_ts : float;  (* seconds since the flight epoch *)
  sn_events : int;  (* bumps seen when the snapshot was taken *)
  sn_values : (string * float) list;
}

type t = {
  cap : int;
  every : int;  (* events between snapshots; <= 0 disables the trigger *)
  sources : (string, unit -> float) Hashtbl.t;
  mutable source_order_rev : string list;
  ring : snapshot array;
  mutable taken : int;
  mutable events : int;
  mutable since : int;  (* events since the last snapshot *)
}

let default_capacity = 1024
let default_every = 4096

let empty_snapshot = { sn_seq = 0; sn_ts = 0.; sn_events = 0; sn_values = [] }

let create ?(capacity = default_capacity) ?(every = default_every) () =
  let cap = max 0 capacity in
  {
    cap;
    every;
    sources = Hashtbl.create 8;
    source_order_rev = [];
    ring = Array.make (max 1 cap) empty_snapshot;
    taken = 0;
    events = 0;
    since = 0;
  }

(* Replace-by-name: a sweep builds one tracker per replay against the
   same per-slot telemetry, so re-registering "tainted_bytes" must
   rebind the closure to the newest store, not grow a duplicate. *)
let set_source t ~name f =
  if t.cap > 0 then begin
    if not (Hashtbl.mem t.sources name) then
      t.source_order_rev <- name :: t.source_order_rev;
    Hashtbl.replace t.sources name f
  end

let sample_now t =
  if t.cap > 0 then begin
    let ts = Flight.now () in
    let values =
      List.rev_map
        (fun name -> (name, (Hashtbl.find t.sources name) ()))
        t.source_order_rev
    in
    t.ring.(t.taken mod t.cap) <-
      { sn_seq = t.taken; sn_ts = ts; sn_events = t.events; sn_values = values };
    t.taken <- t.taken + 1;
    t.since <- 0
  end

let bump t =
  if t.cap > 0 then begin
    t.events <- t.events + 1;
    t.since <- t.since + 1;
    if t.every > 0 && t.since >= t.every then sample_now t
  end

let taken t = t.taken
let length t = min t.taken t.cap
let dropped t = max 0 (t.taken - t.cap)

let snapshots t =
  if t.cap = 0 then []
  else
    List.init (length t) (fun i ->
        t.ring.((max 0 (t.taken - t.cap) + i) mod t.cap))

(* Interleave per-slot snapshots onto the common time axis; ties break
   by slot then sequence so the merged order is deterministic for a
   fixed set of snapshots. *)
let merged ts =
  let all =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun slot t -> List.map (fun sn -> (slot, sn)) (snapshots t))
            ts))
  in
  List.sort
    (fun (sa, a) (sb, b) ->
      compare (a.sn_ts, sa, a.sn_seq) (b.sn_ts, sb, b.sn_seq))
    all

(* --- JSONL export ------------------------------------------------------- *)

(* One header line (slot count, ring health) then one line per snapshot,
   all keyed "pift_telemetry" — the handle [Sink.classify] sniffs.
   Header lines carry "slots"; snapshot lines carry "values". *)

let header_json ~run ts =
  let total f = Array.fold_left (fun acc t -> acc + f t) 0 ts in
  Json.Obj
    [
      ( "pift_telemetry",
        Json.Obj
          ([
             ("slots", Json.Int (Array.length ts));
             ("taken", Json.Int (total taken));
             ("dropped", Json.Int (total dropped));
             ( "capacity",
               Json.Int
                 (Array.fold_left (fun acc t -> max acc t.cap) 0 ts) );
           ]
          @ if String.equal run "" then [] else [ ("run", Json.String run) ])
      );
    ]

let snapshot_json ~slot sn =
  Json.Obj
    [
      ( "pift_telemetry",
        Json.Obj
          [
            ("slot", Json.Int slot);
            ("seq", Json.Int sn.sn_seq);
            ("ts", Json.Float sn.sn_ts);
            ("events", Json.Int sn.sn_events);
            ( "values",
              Json.Obj
                (List.map (fun (k, v) -> (k, Json.Float v)) sn.sn_values) );
          ] );
    ]

let write_jsonl oc ~run ts =
  let emit j =
    output_string oc (Json.to_string j);
    output_char oc '\n'
  in
  emit (header_json ~run ts);
  List.iter (fun (slot, sn) -> emit (snapshot_json ~slot sn)) (merged ts)

(* --- decoding + rendering (pift report) --------------------------------- *)

exception Malformed of string

type series = {
  se_name : string;
  se_points : (float * float) list;  (* (ts, value), file order *)
}

type file = {
  f_run : string;
  f_slots : int;
  f_taken : int;
  f_dropped : int;
  f_series : series list;  (* first-seen metric order *)
}

let get ~ctx what = function
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "%s: missing %s" ctx what))

(* Fold every "pift_telemetry" line of a report file (header and
   snapshot lines, in file order) into per-metric series. *)
let of_json_lines lines =
  let run = ref "" and slots = ref 0 and taken = ref 0 and dropped = ref 0 in
  let by_name = Hashtbl.create 8 in
  let order_rev = ref [] in
  let saw_header = ref false in
  List.iter
    (fun line ->
      let body =
        get ~ctx:"telemetry" "pift_telemetry"
          (Json.member "pift_telemetry" line)
      in
      match Json.member "values" body with
      | None ->
          (* header line *)
          saw_header := true;
          let int name =
            get ~ctx:"telemetry header" name
              (Option.bind (Json.member name body) Json.to_int)
          in
          slots := int "slots";
          taken := int "taken";
          dropped := int "dropped";
          run :=
            Option.value ~default:""
              (Option.bind (Json.member "run" body) Json.to_str)
      | Some values ->
          let ts =
            get ~ctx:"telemetry snapshot" "ts"
              (Option.bind (Json.member "ts" body) Json.to_float)
          in
          let fields =
            match values with
            | Json.Obj fields -> fields
            | _ -> raise (Malformed "telemetry snapshot: values not an object")
          in
          List.iter
            (fun (name, v) ->
              let v =
                get ~ctx:("telemetry value " ^ name) "number" (Json.to_float v)
              in
              match Hashtbl.find_opt by_name name with
              | Some points -> points := (ts, v) :: !points
              | None ->
                  Hashtbl.add by_name name (ref [ (ts, v) ]);
                  order_rev := name :: !order_rev)
            fields)
    lines;
  if not !saw_header then begin
    (* Tolerate snapshot-only files (e.g. a truncated log): reconstruct
       what the header would have said. *)
    taken :=
      List.length
        (List.filter (fun l -> Json.member "pift_telemetry" l <> None) lines)
  end;
  {
    f_run = !run;
    f_slots = !slots;
    f_taken = !taken;
    f_dropped = !dropped;
    f_series =
      List.rev_map
        (fun name ->
          { se_name = name; se_points = List.rev !(Hashtbl.find by_name name) })
        !order_rev;
  }

(* Eight-level Unicode sparkline, downsampled to at most [width] cells
   by averaging each cell's bucket of points. *)
let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline ?(width = 44) values =
  match values with
  | [] -> ""
  | _ ->
      let n = List.length values in
      let arr = Array.of_list values in
      let cells = min width n in
      let lo = Array.fold_left min arr.(0) arr in
      let hi = Array.fold_left max arr.(0) arr in
      let buf = Buffer.create (3 * cells) in
      for c = 0 to cells - 1 do
        let i0 = c * n / cells and i1 = max (((c + 1) * n / cells) - 1) 0 in
        let i1 = max i0 i1 in
        let sum = ref 0. in
        for i = i0 to i1 do
          sum := !sum +. arr.(i)
        done;
        let v = !sum /. float_of_int (i1 - i0 + 1) in
        let level =
          if hi <= lo then 0
          else
            min 7
              (int_of_float (7.99 *. ((v -. lo) /. (hi -. lo))))
        in
        Buffer.add_string buf spark_levels.(level)
      done;
      Buffer.contents buf

let render_json_lines lines ppf () =
  let f = of_json_lines lines in
  Format.fprintf ppf "== telemetry%s ==@."
    (if String.equal f.f_run "" then ""
     else Printf.sprintf " (%s)" f.f_run);
  Format.fprintf ppf "@[<v>%d snapshots across %d slot(s)%s@," f.f_taken
    (max 1 f.f_slots)
    (if f.f_dropped > 0 then
       Printf.sprintf " — warning: ring dropped %d oldest snapshot(s)"
         f.f_dropped
     else "");
  if f.f_series <> [] then begin
    let name_w =
      List.fold_left
        (fun acc s -> max acc (String.length s.se_name))
        (String.length "metric") f.f_series
    in
    Format.fprintf ppf "@,%-*s %6s %12s %12s %12s@," name_w "metric" "n"
      "min" "max" "last";
    List.iter
      (fun s ->
        let values = List.map snd s.se_points in
        let lo = List.fold_left min (List.hd values) values in
        let hi = List.fold_left max (List.hd values) values in
        let last = List.nth values (List.length values - 1) in
        let num v =
          if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%g" v
        in
        Format.fprintf ppf "%-*s %6d %12s %12s %12s@," name_w s.se_name
          (List.length values) (num lo) (num hi) (num last);
        Format.fprintf ppf "%-*s %s@," name_w "" (sparkline values))
      f.f_series
  end
  else Format.fprintf ppf "(no snapshot values)@,";
  Format.fprintf ppf "@]@."
