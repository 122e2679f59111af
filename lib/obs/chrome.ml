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


(* --- decoding ----------------------------------------------------------- *)

type check = {
  c_tracks : int;
  c_events : int;
  c_spans : int;
  c_instants : int;
  c_samples : int;
  c_flows : int;
  c_counter_names : string list;
  c_timeline : (int * Flight.event list) list;
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

type track = {
  mutable last_ts : float;
  mutable depth : int;  (* open B/E spans *)
  mutable events_rev : Flight.event list;
}

(* One pass checks the structure and decodes each track back into the
   ring events it was written from (timestamps in seconds again); also
   returns the wall clock in µs, first to last timestamped event. *)
let decode j =
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some l -> l
    | None -> fail "trace: missing traceEvents array"
  in
  let tracks : (int, track) Hashtbl.t = Hashtbl.create 8 in
  let order_rev = ref [] in
  let track tid =
    match Hashtbl.find_opt tracks tid with
    | Some tr -> tr
    | None ->
        let tr = { last_ts = -1.; depth = 0; events_rev = [] } in
        Hashtbl.add tracks tid tr;
        order_rev := tid :: !order_rev;
        tr
  in
  let named_tracks = ref 0 in
  let n_events = ref 0 and n_spans = ref 0 in
  let n_instants = ref 0 and n_samples = ref 0 in
  let n_flows = ref 0 in
  let counters = Hashtbl.create 8 in
  let bounds = ref None in
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
        let tr = track tid in
        if ts < tr.last_ts then
          fail "%s: ts %g goes backwards on tid %d (last %g)" what ts tid
            tr.last_ts;
        tr.last_ts <- ts;
        bounds :=
          Some
            (match !bounds with
            | None -> (ts, ts)
            | Some (lo, hi) -> (Float.min lo ts, Float.max hi ts));
        let name () =
          Option.value ~default:""
            (Option.bind (Json.member "name" ev) Json.to_str)
        in
        let push kind name value =
          tr.events_rev <-
            { Flight.kind; name; ts = ts /. 1e6; value } :: tr.events_rev
        in
        match ph with
        | "B" ->
            push Flight.Begin (get_str what ev "name") 0.;
            tr.depth <- tr.depth + 1;
            incr n_spans
        | "E" ->
            if tr.depth <= 0 then
              fail "%s: E without open B on tid %d" what tid;
            push Flight.End (name ()) 0.;
            tr.depth <- tr.depth - 1
        | "i" ->
            push Flight.Instant (name ()) 0.;
            incr n_instants
        | "C" ->
            let name = get_str what ev "name" in
            Hashtbl.replace counters name ();
            push Flight.Sample name
              (Option.value ~default:0.
                 (Option.bind (Json.member "args" ev) (fun args ->
                      Option.bind (Json.member "value" args) Json.to_float)));
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
    (fun tid tr ->
      if tr.depth <> 0 then fail "tid %d: %d unclosed B span(s)" tid tr.depth)
    tracks;
  let check =
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
      c_timeline =
        List.rev_map
          (fun tid -> (tid, List.rev (Hashtbl.find tracks tid).events_rev))
          !order_rev;
    }
  in
  let wall_us = match !bounds with Some (lo, hi) -> hi -. lo | None -> 0. in
  (check, wall_us)

let validate j =
  match decode j with
  | check, _ -> Ok check
  | exception Invalid msg -> Error msg

(* --- summary ------------------------------------------------------------ *)

(* Spans grouped by phase: (phase, spans, total ms, max ms, self ms),
   largest total first. *)
let phase_rows spans =
  let phases = Hashtbl.create 8 in
  List.iter
    (fun (sp : Profile.span) ->
      let key = Profile.phase_of sp.Profile.sp_name in
      let ms = 1000. *. sp.Profile.sp_elapsed in
      let n, total, mx, self =
        Option.value ~default:(0, 0., 0., 0.) (Hashtbl.find_opt phases key)
      in
      Hashtbl.replace phases key
        (n + 1, total +. ms, max mx ms, self +. (1000. *. sp.Profile.sp_self)))
    spans;
  List.map
    (fun (key, (n, total, mx, self)) -> (key, n, total, mx, self))
    (List.sort
       (fun (_, (_, a, _, _)) (_, (_, b, _, _)) -> compare (b : float) a)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases []))

let top8 l = List.filteri (fun i _ -> i < 8) l

(* Self time per subsystem and the hottest folded stacks: the view of
   the same spans {!Profile.fold} gives a live run. *)
let self_time ppf phases spans =
  let rows = Profile.rows spans in
  if rows <> [] then begin
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. rows in
    Format.fprintf ppf "@,self time (%d stacks, %.1f ms attributed):@,"
      (List.length rows) (1000. *. total);
    Format.fprintf ppf "%-20s %12s %8s@," "subsystem" "self ms" "share";
    List.iter
      (fun (key, _, _, _, self) ->
        Format.fprintf ppf "%-20s %12.2f %7.1f%%@," key self
          (if total > 0. then self /. (10. *. total) else 0.))
      (List.stable_sort
         (fun (_, _, _, _, a) (_, _, _, _, b) -> compare (b : float) a)
         phases);
    Format.fprintf ppf "@,hottest stacks (self time):@,";
    List.iter
      (fun (path, seconds) ->
        Format.fprintf ppf "  %-44s %10.2f ms@," path (1000. *. seconds))
      (top8
         (List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a) rows))
  end

let summarize j ppf () =
  let check, wall_us = decode j in
  let wall_ms = wall_us /. 1000. in
  (* One span walk per track feeds every table below. *)
  let walked =
    List.map
      (fun (tid, events) ->
        (tid, Profile.spans (fun f -> List.iter f events)))
      check.c_timeline
  in
  let closed =
    List.concat_map (fun (tid, spans) -> List.map (fun sp -> (tid, sp)) spans)
      walked
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
  let phases = phase_rows (List.map snd closed) in
  if phases <> [] then begin
    Format.fprintf ppf "@,%-16s %8s %12s %12s %12s@," "phase" "spans"
      "total ms" "mean ms" "max ms";
    List.iter
      (fun (key, n, total, mx, _) ->
        Format.fprintf ppf "%-16s %8d %12.2f %12.3f %12.3f@," key n total
          (total /. float_of_int n)
          mx)
      phases
  end;
  (* per-worker utilization: busy time is the sum of top-level spans *)
  let busy =
    List.filter_map
      (fun (tid, spans) ->
        match
          List.filter (fun (sp : Profile.span) -> sp.Profile.sp_depth = 0) spans
        with
        | [] -> None
        | top ->
            Some
              ( tid,
                List.fold_left
                  (fun acc (sp : Profile.span) ->
                    acc +. (1000. *. sp.Profile.sp_elapsed))
                  0. top ))
      walked
  in
  if busy <> [] then begin
    Format.fprintf ppf "@,%-10s %12s %12s@," "worker" "busy ms" "utilization";
    List.iter
      (fun (tid, b) ->
        Format.fprintf ppf "%-10d %12.2f %11.1f%%@," tid b
          (if wall_ms > 0. then 100. *. b /. wall_ms else 0.))
      (List.sort compare busy)
  end;
  (* slowest spans *)
  let slowest =
    top8
      (List.stable_sort
         (fun (_, (a : Profile.span)) (_, (b : Profile.span)) ->
           compare b.Profile.sp_elapsed a.Profile.sp_elapsed)
         closed)
  in
  if slowest <> [] then begin
    Format.fprintf ppf "@,slowest spans:@,";
    List.iter
      (fun (tid, (sp : Profile.span)) ->
        Format.fprintf ppf "  %-28s worker %d %10.3f ms@," sp.Profile.sp_name
          tid (1000. *. sp.Profile.sp_elapsed))
      slowest
  end;
  self_time ppf phases (List.concat_map snd walked);
  Format.fprintf ppf "@]@."
