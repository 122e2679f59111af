(* Chrome trace-event / Perfetto JSON export of per-slot flight rings, plus
   the decoder side: a structural validator (used by tests and CI) and a
   human summary for `pift report`.

   Format reference: the "Trace Event Format" JSON consumed by
   chrome://tracing and ui.perfetto.dev — an object with a
   ["traceEvents"] array of {name, ph, pid, tid, ts, ...} records, [ts]
   in microseconds.  We emit duration events ([B]/[E]), instants ([i])
   and counter samples ([C]), one [tid] per pool worker slot, plus
   [M]etadata records naming the process and threads. *)

exception Invalid of string

let pid = 1

let us ts = ts *. 1e6

let meta_event ~name ~tid ~value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let base ~name ~ph ~tid ~ts rest =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String ph);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
       ("ts", Json.Float (us ts));
     ]
    @ rest)

(* One track's events.  The B/E imbalance a wrapped ring can leave is
   repaired by [Flight.iter_balanced], so every emitted track is balanced
   by construction, whatever survived the wrap. *)
let events_of_track tid ring =
  let out = ref [] in
  Flight.iter_balanced
    (fun (e : Flight.event) ->
      let name = e.Flight.name and ts = e.Flight.ts in
      let ev =
        match e.Flight.kind with
        | Flight.Begin -> base ~name ~ph:"B" ~tid ~ts []
        | Flight.End -> base ~name ~ph:"E" ~tid ~ts []
        | Flight.Instant -> base ~name ~ph:"i" ~tid ~ts [ ("s", Json.String "t") ]
        | Flight.Sample ->
            base ~name ~ph:"C" ~tid ~ts
              [ ("args", Json.Obj [ ("value", Json.Float e.Flight.value) ]) ]
      in
      out := ev :: !out)
    ring;
  List.rev !out

let json ?(run = "pift") rings =
  let metadata =
    meta_event ~name:"process_name" ~tid:0 ~value:run
    :: List.init (Array.length rings) (fun tid ->
           meta_event ~name:"thread_name" ~tid
             ~value:(Printf.sprintf "worker %d" tid))
  in
  let events =
    List.concat (List.mapi events_of_track (Array.to_list rings))
  in
  let dropped = Array.fold_left (fun acc r -> acc + Flight.dropped r) 0 rings in
  Json.Obj
    ([
       ("traceEvents", Json.List (metadata @ events));
       ("displayTimeUnit", Json.String "ms");
       ("pift_dropped_events", Json.Int dropped);
     ]
    @
    (* Per-ring drop counters, only when something was actually lost so
       drop-free traces keep their historical byte layout. *)
    if dropped = 0 then []
    else
      [
        ( "pift_dropped_by_track",
          Json.List
            (List.concat
               (List.mapi
                  (fun tid ring ->
                    match Flight.dropped ring with
                    | 0 -> []
                    | d ->
                        [
                          Json.Obj
                            [ ("tid", Json.Int tid); ("dropped", Json.Int d) ];
                        ])
                  (Array.to_list rings))) );
      ])

let write oc ?run rings =
  output_string oc (Json.to_string (json ?run rings));
  output_char oc '\n'

(* --- validation --------------------------------------------------------- *)

type check = {
  c_tracks : int;
  c_events : int;
  c_spans : int;
  c_instants : int;
  c_samples : int;
  c_flows : int;
  c_counter_names : string list;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let get_str what j name =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> fail "%s: missing string %S" what name

let get_int what j name =
  match Option.bind (Json.member name j) Json.to_int with
  | Some i -> i
  | None -> fail "%s: missing int %S" what name

let get_float what j name =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> f
  | None -> fail "%s: missing number %S" what name

let validate_exn j =
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some l -> l
    | None -> fail "trace: missing traceEvents array"
  in
  (* per-tid running state: (last ts, open B/E depth) *)
  let tids : (int, float ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  let state tid =
    match Hashtbl.find_opt tids tid with
    | Some s -> s
    | None ->
        let s = (ref (-1.), ref 0) in
        Hashtbl.add tids tid s;
        s
  in
  let named_tracks = ref 0 in
  let n_events = ref 0 and n_spans = ref 0 in
  let n_instants = ref 0 and n_samples = ref 0 in
  let n_flows = ref 0 in
  let counters = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      let what = Printf.sprintf "traceEvents[%d]" i in
      let ph = get_str what ev "ph" in
      ignore (get_int what ev "pid");
      let tid = get_int what ev "tid" in
      if String.equal ph "M" then begin
        if String.equal (get_str what ev "name") "thread_name" then
          incr named_tracks
      end
      else begin
        incr n_events;
        let ts = get_float what ev "ts" in
        if ts < 0. then fail "%s: negative ts %g" what ts;
        let last_ts, depth = state tid in
        if ts < !last_ts then
          fail "%s: ts %g goes backwards on tid %d (last %g)" what ts tid
            !last_ts;
        last_ts := ts;
        match ph with
        | "B" ->
            ignore (get_str what ev "name");
            incr depth;
            incr n_spans
        | "E" ->
            if !depth <= 0 then fail "%s: E without open B on tid %d" what tid;
            decr depth
        | "i" -> incr n_instants
        | "C" ->
            Hashtbl.replace counters (get_str what ev "name") ();
            incr n_samples
        | "s" | "t" | "f" ->
            (* flow events (provenance edges) bind by name + id *)
            ignore (get_str what ev "name");
            ignore (get_int what ev "id");
            incr n_flows
        | other -> fail "%s: unknown phase %S" what other
      end)
    events;
  Hashtbl.iter
    (fun tid (_, depth) ->
      if !depth <> 0 then fail "tid %d: %d unclosed B span(s)" tid !depth)
    tids;
  {
    c_tracks = !named_tracks;
    c_events = !n_events;
    c_spans = !n_spans;
    c_instants = !n_instants;
    c_samples = !n_samples;
    c_flows = !n_flows;
    c_counter_names =
      List.sort String.compare
        (Hashtbl.fold (fun k () acc -> k :: acc) counters []);
  }

let validate j =
  match validate_exn j with
  | check -> Ok check
  | exception Invalid msg -> Error msg

(* --- summary ------------------------------------------------------------ *)

(* Group span names into phases: everything before the first '(' or ':'
   ("cell(13,3)" -> "cell", "record:LGRoot" -> "record"). *)
let phase_of name =
  let cut = ref (String.length name) in
  String.iteri
    (fun i c -> if (c = '(' || c = ':') && i < !cut then cut := i)
    name;
  String.sub name 0 !cut

type closed_span = { sp_name : string; sp_tid : int; sp_ms : float }

(* Reconstruct completed spans per tid; also per-tid busy time (sum of
   top-level span durations) for the utilization table. *)
let spans_of_trace j =
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "traceEvents" j) Json.to_list)
  in
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  let busy : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let closed = ref [] in
  List.iter
    (fun ev ->
      match Option.bind (Json.member "ph" ev) Json.to_str with
      | Some "B" ->
          let tid = Option.value ~default:0 (Option.bind (Json.member "tid" ev) Json.to_int) in
          let ts = Option.value ~default:0. (Option.bind (Json.member "ts" ev) Json.to_float) in
          let name =
            Option.value ~default:"?"
              (Option.bind (Json.member "name" ev) Json.to_str)
          in
          let s = stack tid in
          s := (name, ts) :: !s
      | Some "E" -> (
          let tid = Option.value ~default:0 (Option.bind (Json.member "tid" ev) Json.to_int) in
          let ts = Option.value ~default:0. (Option.bind (Json.member "ts" ev) Json.to_float) in
          let s = stack tid in
          match !s with
          | [] -> ()
          | (name, t0) :: rest ->
              s := rest;
              let ms = (ts -. t0) /. 1000. in
              closed := { sp_name = name; sp_tid = tid; sp_ms = ms } :: !closed;
              if rest = [] then begin
                let b =
                  match Hashtbl.find_opt busy tid with
                  | Some b -> b
                  | None ->
                      let b = ref 0. in
                      Hashtbl.add busy tid b;
                      b
                in
                b := !b +. ms
              end)
      | _ -> ())
    events;
  (List.rev !closed, busy)

(* Closed spans grouped by phase: (phase, spans, total ms, max ms),
   largest total first. *)
let phase_rows closed =
  let phases = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let key = phase_of sp.sp_name in
      let n, total, mx =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt phases key)
      in
      Hashtbl.replace phases key (n + 1, total +. sp.sp_ms, max mx sp.sp_ms))
    closed;
  List.map
    (fun (key, (n, total, mx)) -> (key, n, total, mx))
    (List.sort
       (fun (_, (_, a, _)) (_, (_, b, _)) -> compare (b : float) a)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases []))

let phase_table j = phase_rows (fst (spans_of_trace j))

let bounds_of_trace j =
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "traceEvents" j) Json.to_list)
  in
  List.fold_left
    (fun acc ev ->
      match
        ( Option.bind (Json.member "ph" ev) Json.to_str,
          Option.bind (Json.member "ts" ev) Json.to_float )
      with
      | Some "M", _ | _, None -> acc
      | _, Some ts -> (
          match acc with
          | None -> Some (ts, ts)
          | Some (lo, hi) -> Some (min lo ts, max hi ts)))
    None events

let summarize j ppf () =
  let check = validate_exn j in
  let closed, busy = spans_of_trace j in
  let wall_ms =
    match bounds_of_trace j with
    | Some (lo, hi) -> (hi -. lo) /. 1000.
    | None -> 0.
  in
  let dropped =
    Option.value ~default:0
      (Option.bind (Json.member "pift_dropped_events" j) Json.to_int)
  in
  Format.fprintf ppf "@[<v>== trace summary ==@,";
  Format.fprintf ppf
    "worker tracks: %d@,events: %d (%d spans, %d instants, %d counter \
     samples%s)@,wall clock: %.1f ms@,"
    check.c_tracks check.c_events check.c_spans check.c_instants
    check.c_samples
    ((if check.c_flows > 0 then
        Printf.sprintf ", %d flow events" check.c_flows
      else "")
    ^
    if dropped > 0 then Printf.sprintf ", %d dropped to wrap-around" dropped
    else "")
    wall_ms;
  if check.c_counter_names <> [] then
    Format.fprintf ppf "counter tracks: %s@,"
      (String.concat ", " check.c_counter_names);
  if dropped > 0 then begin
    (* Dropped events mean the rings wrapped: the summary below only
       covers what survived, so say so loudly rather than inline. *)
    let by_track =
      match
        Option.bind (Json.member "pift_dropped_by_track" j) Json.to_list
      with
      | None -> ""
      | Some tracks ->
          let one tr =
            match
              ( Option.bind (Json.member "tid" tr) Json.to_int,
                Option.bind (Json.member "dropped" tr) Json.to_int )
            with
            | Some tid, Some d -> Some (Printf.sprintf "tid %d: %d" tid d)
            | _ -> None
          in
          let parts = List.filter_map one tracks in
          if parts = [] then ""
          else Printf.sprintf " (%s)" (String.concat ", " parts)
    in
    Format.fprintf ppf
      "warning: %d event(s) dropped to ring wrap-around%s — the oldest \
       history is gone; raise the ring capacity@,"
      dropped by_track
  end;
  let rows = phase_rows closed in
  if rows <> [] then begin
    Format.fprintf ppf "@,%-16s %8s %12s %12s %12s@," "phase" "spans"
      "total ms" "mean ms" "max ms";
    List.iter
      (fun (key, n, total, mx) ->
        Format.fprintf ppf "%-16s %8d %12.2f %12.3f %12.3f@," key n total
          (total /. float_of_int n)
          mx)
      rows
  end;
  (* per-worker utilization *)
  let tids =
    List.sort compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) busy [])
  in
  if tids <> [] then begin
    Format.fprintf ppf "@,%-10s %12s %12s@," "worker" "busy ms" "utilization";
    List.iter
      (fun tid ->
        let b = !(Hashtbl.find busy tid) in
        Format.fprintf ppf "%-10d %12.2f %11.1f%%@," tid b
          (if wall_ms > 0. then 100. *. b /. wall_ms else 0.))
      tids
  end;
  (* slowest spans *)
  let slowest =
    List.filteri
      (fun i _ -> i < 8)
      (List.sort (fun a b -> compare b.sp_ms a.sp_ms) closed)
  in
  if slowest <> [] then begin
    Format.fprintf ppf "@,slowest spans:@,";
    List.iter
      (fun sp ->
        Format.fprintf ppf "  %-28s worker %d %10.3f ms@," sp.sp_name
          sp.sp_tid sp.sp_ms)
      slowest
  end;
  Format.fprintf ppf "@]@."
