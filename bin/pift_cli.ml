(* pift — command-line front end: run apps under the tracker, sweep
   parameters, and regenerate the paper's experiments. *)

open Cmdliner

module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Recorded = Pift_eval.Recorded
module App = Pift_workloads.App

let all_apps () =
  Pift_workloads.Droidbench.all @ Pift_workloads.Malware.all
  @ Pift_workloads.Extended.all @ Pift_workloads.Evasion.all
  @ [ Pift_workloads.Browser.app ]

let find_app name =
  match
    List.find_opt
      (fun (a : App.t) -> String.equal a.App.name name)
      (all_apps ())
  with
  | Some a -> a
  | None ->
      Printf.eprintf "unknown app %S (try `pift list-apps`)\n" name;
      exit 2

(* A corrupt or cut trace or snapshot makes its decoder fail with a
   positioned message ([Trace_io: record N: ...], [Snapshot: record N:
   ...]), and a bad combination of inputs fails with the command's own.
   Either is an input error, not a crash: print it and exit 2, as
   [report] does for a malformed file. *)
let input_errors f =
  try f ()
  with Failure msg ->
    Printf.eprintf "pift: %s\n" msg;
    exit 2

(* --- common options --- *)

let ni =
  let doc = "Tainting-window size NI (instructions)." in
  Arg.(value & opt int 13 & info [ "ni" ] ~docv:"NI" ~doc)

let nt =
  let doc = "Maximum propagations per window NT." in
  Arg.(value & opt int 3 & info [ "nt" ] ~docv:"NT" ~doc)

let untaint =
  let doc = "Enable untainting of stores outside windows." in
  Arg.(value & opt bool true & info [ "untaint" ] ~docv:"BOOL" ~doc)

let policy_of ni nt untaint = Policy.make ~untaint ~ni ~nt ()

let jit =
  let doc = "Execute under the JIT/AOT translation (no fetch/dispatch)." in
  Arg.(value & flag & info [ "jit" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the parallel replay pool (default: the machine's \
     domain count).  Output is byte-identical for every job count."
  in
  Arg.(
    value
    & opt int (Pift_par.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let mode_of jit = if jit then Pift_dalvik.Vm.Jit else Pift_dalvik.Vm.Interpreter

(* --- metrics options --- *)

module Obs = Pift_obs

type metrics_format = Jsonl | Prom | Text

let metrics_out =
  let doc =
    "Write a metrics snapshot of the run to $(docv) ($(b,-) for stdout)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_format =
  let fmt =
    Arg.enum [ ("jsonl", Jsonl); ("prom", Prom); ("text", Text) ]
  in
  let doc =
    "Snapshot format: $(b,jsonl) (one JSON object per line, readable by \
     $(b,pift report)), $(b,prom) (Prometheus text exposition), or \
     $(b,text) (human summary)."
  in
  Arg.(value & opt fmt Jsonl & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

(* --- flight-recorder options --- *)

let trace_out =
  let doc =
    "Write a Chrome trace-event / Perfetto JSON timeline of the run to \
     $(docv) (load it at ui.perfetto.dev).  One track per worker slot.  \
     Tracing never touches stdout: the run's output is byte-identical \
     with or without it."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* One ring per worker slot when --trace-out was given; [||] keeps every
   recording call on its no-op branch. *)
let rings_of trace_out ~slots =
  match trace_out with
  | None -> [||]
  | Some _ -> Array.init (max 1 slots) (fun _ -> Obs.Flight.create ())

let write_trace ~out ~run rings =
  if Array.length rings > 0 then begin
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Chrome.write oc ~run rings);
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rings in
    (* stderr, not stdout: traced and untraced runs must keep
       byte-identical standard output. *)
    Printf.eprintf "trace: wrote %s (%d events across %d tracks%s)\n" out
      (sum Obs.Flight.length) (Array.length rings)
      (let d = sum Obs.Flight.dropped in
       if d > 0 then Printf.sprintf ", %d dropped to wrap-around" d else "")
  end

(* Times one run-level phase into [phases] (the metrics snapshot's
   spans) and, when [flight] is given, brackets it on that ring. *)
let time_phase phases flight name f =
  Obs.Profile.span (Some phases) name (fun () ->
      match flight with
      | None -> f ()
      | Some r ->
          Obs.Flight.begin_ r name;
          Fun.protect ~finally:(fun () -> Obs.Flight.end_ r name) f)

(* --- telemetry / profiler / live-view options --- *)

let telemetry_out =
  let doc =
    "Append continuous-telemetry snapshots to $(docv) (JSONL, readable by \
     $(b,pift report)): a bounded ring of periodic readings — tainted \
     bytes, range count, window occupancy, store state — taken every \
     $(b,--telemetry-every) events.  Telemetry never touches stdout: \
     output is byte-identical with or without it."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE" ~doc)

let telemetry_every =
  let doc =
    "Events between telemetry snapshots ($(b,0) disables the event \
     trigger)."
  in
  Arg.(
    value
    & opt int Obs.Telemetry.default_every
    & info [ "telemetry-every" ] ~docv:"N" ~doc)

let profile_out =
  let doc =
    "Write an overhead-attribution profile to $(docv): folded stacks \
     (self time per $(b,pool;replay;store)-style region path, \
     flamegraph.pl/speedscope-compatible), summarized per subsystem by \
     $(b,pift report).  Never touches stdout."
  in
  Arg.(
    value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let top_flag =
  let doc =
    "Add per-worker lines to the live progress view on stderr: events, \
     tainted bytes, snapshot-ring health per slot.  Needs a terminal \
     (off one, only $(b,--progress)'s log lines appear) and implies \
     telemetry recording; stdout is untouched."
  in
  Arg.(value & flag & info [ "top" ] ~doc)

let progress_flag =
  let doc =
    "Report progress even when stderr is not a terminal: degrades the \
     live view to a log line every 25 cells."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* One telemetry instance per worker slot when --telemetry-out or --top
   was given; [||] keeps Tracker.observe's bump on its no-op branch. *)
let telems_of ~out ~top ~every ~slots =
  if out = None && not top then [||]
  else Array.init (max 1 slots) (fun _ -> Obs.Telemetry.create ~every ())

let profiles_of profile_out ~slots =
  match profile_out with
  | None -> [||]
  | Some _ -> Array.init (max 1 slots) (fun _ -> Obs.Profile.create ())

let write_telemetry ~out ~run telems =
  if Array.length telems > 0 then begin
    (* One final reading per slot: short runs that never hit the cadence
       still export a point, and the series always ends at run end. *)
    Array.iter Obs.Telemetry.sample_now telems;
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Telemetry.write_jsonl oc ~run telems);
    let sum f = Array.fold_left (fun acc t -> acc + f t) 0 telems in
    let dropped = sum Obs.Telemetry.dropped in
    (* stderr, like write_trace: stdout stays byte-identical *)
    Printf.eprintf "telemetry:  wrote %s (%d snapshots across %d slots%s)\n"
      out
      (sum Obs.Telemetry.taken)
      (Array.length telems)
      (if dropped > 0 then
         Printf.sprintf ", %d dropped to wrap-around" dropped
       else "")
  end

let write_profile ~out profiles =
  if Array.length profiles > 0 then begin
    let rows = Obs.Profile.merged profiles in
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Obs.Profile.to_folded_string rows));
    Printf.eprintf "profile:    wrote %s (%d stacks)\n" out (List.length rows)
  end

(* --- provenance options --- *)

module Graph = Pift_core.Provenance.Graph
module Explain = Pift_eval.Explain

let prov_flag =
  let doc =
    "Print, per flagged sink, the source→…→sink provenance path of every \
     origin label (the flow-graph view of $(b,--explain))."
  in
  Arg.(value & flag & info [ "prov" ] ~doc)

let prov_out =
  let doc =
    "Export the provenance flow graph to $(docv): Graphviz DOT when the \
     name ends in $(b,.dot), otherwise Perfetto flow-event JSON \
     (readable by $(b,pift report) and ui.perfetto.dev).  Never touches \
     stdout."
  in
  Arg.(value & opt (some string) None & info [ "prov-out" ] ~docv:"FILE" ~doc)

let write_dot ~out ~run g =
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Graph.to_dot ~name:run g));
  (* stderr, like write_trace: exports must not perturb stdout *)
  Printf.eprintf "provenance: wrote %s (%d nodes, %d edges)\n" out
    (Graph.node_count g) (Graph.edge_count g)

let write_flow_out ~out ~run (g, sinks) =
  if Filename.check_suffix out ".dot" then write_dot ~out ~run g
  else begin
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          (Obs.Json.to_string
             (Graph.flow_json ~run ~sinks:(Explain.summaries sinks) g));
        output_char oc '\n');
    Printf.eprintf "provenance: wrote %s (%d nodes, %d edges)\n" out
      (Graph.node_count g) (Graph.edge_count g)
  end

(* A sweep's [on_cell] hook: the view learns its total from the first
   callback. *)
let step_cell view _done total =
  Obs.Progress.set_total view total;
  Obs.Progress.step view

let write_metrics ~out ~format ~run ~spans samples =
  let emit oc =
    match format with
    | Jsonl ->
        Obs.Sink.write_jsonl oc
          (Obs.Sink.snapshot_to_json ~run ~spans samples)
    | Prom ->
        let ppf = Format.formatter_of_out_channel oc in
        Obs.Sink.prometheus samples ppf ();
        Format.pp_print_flush ppf ()
    | Text ->
        let ppf = Format.formatter_of_out_channel oc in
        Obs.Sink.render ~run ~spans samples ppf ();
        Format.pp_print_flush ppf ()
  in
  if String.equal out "-" then begin
    emit stdout;
    flush stdout
  end
  else begin
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit oc);
    (* stderr, like write_trace: stdout stays byte-identical *)
    Printf.eprintf "metrics:    wrote %s\n" out
  end

(* --- list-apps --- *)

let list_apps () =
  Printf.printf "%-24s %-28s %-7s %s\n" "name" "category" "label" "subset48";
  List.iter
    (fun (a : App.t) ->
      Printf.printf "%-24s %-28s %-7s %b\n" a.App.name a.App.category
        (if a.App.leaky then "leaky" else "benign")
        a.App.subset48)
    (all_apps ())

let list_apps_cmd =
  Cmd.v
    (Cmd.info "list-apps" ~doc:"List the DroidBench-like suite and malware.")
    Term.(const list_apps $ const ())

(* --- run-app --- *)

let run_app name ni nt untaint verbose jit explain prov prov_out metrics_out
    metrics_format trace_out telemetry_out telemetry_every profile_out top =
  let app = find_app name in
  let policy = policy_of ni nt untaint in
  let rings = rings_of trace_out ~slots:1 in
  let flight = if Array.length rings > 0 then Some rings.(0) else None in
  let telems =
    telems_of ~out:telemetry_out ~top ~every:telemetry_every ~slots:1
  in
  let telemetry = if Array.length telems > 0 then Some telems.(0) else None in
  let profiles = profiles_of profile_out ~slots:1 in
  let profile =
    if Array.length profiles > 0 then Some profiles.(0) else None
  in
  let view =
    Obs.Progress.create
      ?enabled:(if top then None else Some false)
      ~telems ~rings ~label:app.App.name ~total:0 ()
  in
  (* Per-phase spans; the recording stamps source/sink instants and VM
     spans, and the replay's peaks are sampled once it ends (per-event
     curves come from --telemetry-out --telemetry-every 1). *)
  let phases = Obs.Profile.create () in
  let phase name f = time_phase phases flight name f in
  let recorded =
    phase "record" (fun () ->
        Recorded.record ~mode:(mode_of jit) ?flight ?profile app)
  in
  let store = Pift_core.Store.create () in
  let replay =
    phase "replay" (fun () ->
        Recorded.replay ~store ~policy ?telemetry ?profile recorded)
  in
  (match flight with
  | None -> ()
  | Some r ->
      let s = replay.Recorded.stats in
      Obs.Flight.sample r "max_tainted_bytes"
        (float_of_int s.Tracker.max_tainted_bytes);
      Obs.Flight.sample r "max_ranges" (float_of_int s.Tracker.max_ranges));
  let dift = phase "full-dift" (fun () -> Recorded.replay_dift recorded) in
  (* Replay once more against the hardware range cache so the snapshot
     carries pift_storage_* hits and the modelled stall cycles.  The
     pass stays off the trace, so a trace is the same with or without
     --metrics-out. *)
  let hw_parts =
    match metrics_out with
    | None -> []
    | Some _ ->
        time_phase phases None "hw-model" (fun () ->
            let storage = Pift_core.Storage.create () in
            let hw_store = Pift_core.Storage.store storage in
            (* The hardware pass owns a storage model worth watching: bind
               its occupancy as an extra telemetry source (the replay
               rebinds its tracker sources to this pass's tracker). *)
            (match telemetry with
            | None -> ()
            | Some te ->
                Obs.Telemetry.set_source te ~name:"storage_occupancy"
                  (fun () ->
                    float_of_int (Pift_core.Storage.occupancy storage)));
            ignore
              (Recorded.replay ~store:hw_store ~policy ?telemetry recorded);
            let st = Pift_core.Storage.stats storage in
            let trace = recorded.Recorded.trace in
            [
              Pift_eval.Metrics.Range_cache storage;
              Pift_eval.Metrics.Hw
                (Pift_core.Hw_model.estimate
                   ~total_insns:(Pift_trace.Trace.length trace)
                   ~loads:(Pift_trace.Trace.loads trace)
                   ~stores:(Pift_trace.Trace.stores trace)
                   ~secondary_hits:st.Pift_core.Storage.secondary_hits ());
            ])
  in
  Printf.printf "app:        %s (%s, labelled %s)\n" app.App.name
    app.App.category
    (if app.App.leaky then "leaky" else "benign");
  Printf.printf "trace:      %d instructions (%d loads, %d stores), %d bytecodes\n"
    (Pift_trace.Trace.length recorded.Recorded.trace)
    (Pift_trace.Trace.loads recorded.Recorded.trace)
    (Pift_trace.Trace.stores recorded.Recorded.trace)
    recorded.Recorded.bytecodes;
  Printf.printf "policy:     %s\n" (Policy.to_string policy);
  List.iter
    (fun (v : Recorded.verdict) ->
      Printf.printf "  sink %-6s -> %s\n" v.Recorded.kind
        (if v.Recorded.flagged then "TAINTED" else "clean"))
    replay.Recorded.verdicts;
  List.iter
    (fun (v : Recorded.origin_verdict) ->
      if v.Recorded.ov_origins <> [] then
        Printf.printf "  sink %-6s carries: %s\n" v.Recorded.ov_kind
          (String.concat ", " v.Recorded.ov_origins))
    (Recorded.replay ~with_origins:true ~policy recorded).Recorded.origins;
  Printf.printf "PIFT:       %s\n"
    (if replay.Recorded.flagged then "LEAK DETECTED" else "no leak");
  Printf.printf "full DIFT:  %s (ground truth oracle)\n"
    (if dift.Recorded.dift_flagged then "LEAK DETECTED" else "no leak");
  let s = replay.Recorded.stats in
  Printf.printf
    "tracker:    %d taint ops, %d untaint ops, max %d tainted bytes in %d \
     ranges\n"
    s.Tracker.taint_ops s.Tracker.untaint_ops s.Tracker.max_tainted_bytes
    s.Tracker.max_ranges;
  if explain then
    List.iter
      (fun f -> Format.printf "%a@." Pift_eval.Explain.pp_flow f)
      (Pift_eval.Explain.explain ~policy recorded);
  if prov || prov_out <> None then begin
    let g, sinks = Explain.flow_graph ~policy recorded in
    if prov then
      List.iter
        (fun sf -> Format.printf "%a@." Explain.pp_sink_flow sf)
        sinks;
    match prov_out with
    | Some out -> write_flow_out ~out ~run:app.App.name (g, sinks)
    | None -> ()
  end;
  if verbose then begin
    Printf.printf "sources:\n";
    Array.iter
      (fun (seq, m) ->
        match m with
        | Recorded.Source { kind; range } ->
            Printf.printf "  @%-8d source %s %s\n" seq kind
              (Pift_util.Range.to_string range)
        | Recorded.Sink { kind; ranges } ->
            Printf.printf "  @%-8d sink %s (%d ranges)\n" seq kind
              (List.length ranges))
      recorded.Recorded.markers
  end;
  (match metrics_out with
  | Some out ->
      write_metrics ~out ~format:metrics_format ~run:app.App.name
        ~spans:(Obs.Profile.folded phases)
        (Pift_eval.Metrics.samples
           (Recording { recorded; mode = mode_of jit }
           :: Replay { recorded; replay; store }
           :: hw_parts))
  | None -> ());
  Obs.Progress.finish view;
  (match telemetry_out with
  | Some out -> write_telemetry ~out ~run:app.App.name telems
  | None -> ());
  (match profile_out with
  | Some out -> write_profile ~out profiles
  | None -> ());
  match trace_out with
  | Some out -> write_trace ~out ~run:app.App.name rings
  | None -> ()

let run_app_cmd =
  let app_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application name (see list-apps).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print markers.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Reconstruct the load/store hop chain behind each flagged \
                sink.")
  in
  Cmd.v
    (Cmd.info "run-app"
       ~doc:"Execute one app and report PIFT and full-DIFT verdicts.")
    Term.(
      const run_app $ app_arg $ ni $ nt $ untaint $ verbose $ jit $ explain
      $ prov_flag $ prov_out $ metrics_out $ metrics_format
      $ trace_out $ telemetry_out $ telemetry_every $ profile_out $ top_flag)

(* --- sweep --- *)

let sweep subset_only jobs metrics_out metrics_format trace_out prov
    prov_out telemetry_out telemetry_every profile_out top progress =
  let apps =
    if subset_only then Pift_workloads.Droidbench.subset48
    else Pift_workloads.Droidbench.all
  in
  let rings = rings_of trace_out ~slots:jobs in
  let telems =
    telems_of ~out:telemetry_out ~top ~every:telemetry_every ~slots:jobs
  in
  let profiles = profiles_of profile_out ~slots:jobs in
  let view =
    Obs.Progress.create
      ?enabled:(if progress then Some true else None)
      ~telems:(if top then telems else [||])
      ~rings ~label:"cells" ~total:0 ()
  in
  (* The sweep's phases stay off the rings: each ring's track holds its
     pool slot's cells. *)
  let phases = Obs.Profile.create () in
  let phase name f = time_phase phases None name f in
  let sweep =
    phase "sweep" (fun () ->
        Pift_eval.Accuracy.sweep ~rings ~telems ~profiles
          ~on_cell:(step_cell view) ~jobs ~with_origins:prov apps)
  in
  Obs.Progress.finish view;
  Pift_eval.Accuracy.render sweep Format.std_formatter ();
  (match prov_out with
  | Some out ->
      (* Attribution runs at the paper's operating point over the same
         corpus; a separate pass because it needs the full-DIFT origin
         replay the grid never performs. *)
      let at =
        phase "attribution" (fun () ->
            Pift_eval.Accuracy.attribution ~policy:Policy.default
              apps)
      in
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Obs.Json.to_string (Pift_eval.Accuracy.attribution_json at));
          output_char oc '\n');
      Printf.eprintf "attribution: wrote %s (%d true-positive sinks)\n" out
        (List.length at.Pift_eval.Accuracy.at_rows)
  | None -> ());
  (match metrics_out with
  | Some out ->
      write_metrics ~out ~format:metrics_format ~run:"sweep"
        ~spans:(Obs.Profile.folded phases)
        (Pift_eval.Metrics.samples [ Sweep sweep ])
  | None -> ());
  (match telemetry_out with
  | Some out -> write_telemetry ~out ~run:"sweep" telems
  | None -> ());
  (match profile_out with
  | Some out -> write_profile ~out profiles
  | None -> ());
  match trace_out with
  | Some out -> write_trace ~out ~run:"sweep" rings
  | None -> ()

let sweep_cmd =
  let subset =
    Arg.(
      value & flag
      & info [ "subset48" ] ~doc:"Use the 48-app Fig. 11 subset only.")
  in
  let prov =
    Arg.(
      value & flag
      & info [ "prov" ]
          ~doc:
            "Thread the provenance sidecar through every grid replay.  \
             Verdicts are independent of the sidecar, so sweep output is \
             byte-identical with or without this flag — it exists to \
             measure the sidecar under the full grid.")
  in
  let prov_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prov-out" ] ~docv:"FILE"
          ~doc:
            "Also run the attribution-accuracy comparison (PIFT origin \
             sets vs full-DIFT ground truth at the paper's operating \
             point) and write it as JSON to $(docv) (readable by \
             $(b,pift report)).")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Accuracy sweep over the NI x NT grid (Fig. 11).")
    Term.(
      const sweep $ subset $ jobs $ metrics_out
      $ metrics_format $ trace_out $ prov $ prov_out $ telemetry_out
      $ telemetry_every $ profile_out $ top_flag
      $ progress_flag)

(* --- experiment --- *)

let experiment jobs trace_out ids =
  match ids with
  | [] ->
      Printf.printf "available experiments:\n";
      List.iter
        (fun (id, doc) -> Printf.printf "  %-22s %s\n" id doc)
        Pift_eval.Experiments.all
  | ids ->
      let rings = rings_of trace_out ~slots:jobs in
      List.iter
        (fun id ->
          if String.equal id "all" then
            Pift_eval.Experiments.run_all ~rings ~jobs
              Format.std_formatter
          else begin
            (* one view per id: each experiment counts its own cells *)
            let view = Obs.Progress.create ~label:"cells" ~total:0 () in
            Pift_eval.Experiments.run ~rings ~on_cell:(step_cell view) ~jobs
              id Format.std_formatter;
            Obs.Progress.finish view
          end)
        ids;
      (match trace_out with
      | Some out -> write_trace ~out ~run:(String.concat "+" ids) rings
      | None -> ())

let experiment_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (e.g. fig11, table1, $(b,all)); empty lists \
                them.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the paper's tables/figures.")
    Term.(const experiment $ jobs $ trace_out $ ids)

(* --- record-trace / analyze-trace / convert --- *)

let trace_format_enum =
  Arg.enum
    [
      ("text", Pift_eval.Trace_io.Text); ("binary", Pift_eval.Trace_io.Binary);
    ]

let trace_format =
  let doc =
    "Trace file format: $(b,text) (line-oriented, diffable) or $(b,binary) \
     (compact delta-coded records — smaller and faster to load).  Readers \
     autodetect either, so this only affects what gets written."
  in
  Arg.(
    value
    & opt trace_format_enum Pift_eval.Trace_io.Text
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let record_trace name output jit format =
  let app = find_app name in
  let recorded = Recorded.record ~mode:(mode_of jit) app in
  Pift_eval.Trace_io.save ~format recorded output;
  Printf.printf "wrote %s (%s): %d events, %d markers\n" output
    (Pift_eval.Trace_io.format_to_string format)
    (Pift_trace.Trace.length recorded.Recorded.trace)
    (Array.length recorded.Recorded.markers)

let record_trace_cmd =
  let app_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application to record.")
  in
  let output =
    Arg.(
      value
      & opt string "trace.pift"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "record-trace"
       ~doc:
         "Execute an app and dump its instruction trace plus source/sink \
          markers (the paper's offline pipeline).")
    Term.(const record_trace $ app_arg $ output $ jit $ trace_format)

let convert input output format =
  input_errors @@ fun () ->
  let format =
    (* Default to the format the input is not in — the common use is
       shrinking an archived text trace (or inspecting a binary one). *)
    match format with
    | Some f -> f
    | None -> (
        match Pift_eval.Trace_io.detect_format input with
        | Pift_eval.Trace_io.Text -> Pift_eval.Trace_io.Binary
        | Pift_eval.Trace_io.Binary -> Pift_eval.Trace_io.Text)
  in
  let recorded = Pift_eval.Trace_io.load input in
  Pift_eval.Trace_io.save ~format recorded output;
  Printf.printf "wrote %s (%s): %d events, %d markers\n" output
    (Pift_eval.Trace_io.format_to_string format)
    (Pift_trace.Trace.length recorded.Recorded.trace)
    (Array.length recorded.Recorded.markers)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"INPUT" ~doc:"Trace file to convert (either format).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"Output file, overwritten.")
  in
  let format =
    let doc =
      "Output format.  Defaults to the opposite of the input's format."
    in
    Arg.(
      value
      & opt (some trace_format_enum) None
      & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Re-encode a recorded trace between the text and binary formats.  \
          Conversion is lossless: analysing either file yields \
          byte-identical output.")
    Term.(const convert $ input $ output $ format)

let analyze_trace path ni nt untaint profile_out =
  input_errors @@ fun () ->
  let profiles = profiles_of profile_out ~slots:1 in
  let profile =
    if Array.length profiles > 0 then Some profiles.(0) else None
  in
  (* The one command where decode dominates: with --profile-out the
     breakdown shows trace_io (parse) next to replay/tracker/store. *)
  let recorded = Pift_eval.Trace_io.load ?profile path in
  let policy = policy_of ni nt untaint in
  let replay = Recorded.replay ~policy ?profile recorded in
  Printf.printf "trace:   %s (%d events)\n" recorded.Recorded.name
    (Pift_trace.Trace.length recorded.Recorded.trace);
  Printf.printf "policy:  %s\n" (Policy.to_string policy);
  List.iter
    (fun (v : Recorded.verdict) ->
      Printf.printf "  sink %-6s -> %s\n" v.Recorded.kind
        (if v.Recorded.flagged then "TAINTED" else "clean"))
    replay.Recorded.verdicts;
  let s = replay.Recorded.stats in
  Printf.printf
    "verdict: %s (%d taint ops, %d untaint ops, max %d tainted bytes)\n"
    (if replay.Recorded.flagged then "LEAK DETECTED" else "no leak")
    s.Tracker.taint_ops s.Tracker.untaint_ops s.Tracker.max_tainted_bytes;
  match profile_out with
  | Some out -> write_profile ~out profiles
  | None -> ()

let analyze_trace_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file from record-trace.")
  in
  Cmd.v
    (Cmd.info "analyze-trace"
       ~doc:"Run the PIFT analysis over a previously recorded trace file.")
    Term.(const analyze_trace $ path $ ni $ nt $ untaint $ profile_out)

(* --- why --- *)

let why target ni nt untaint jit pid_opt sink_opt dot_out prov_out =
  input_errors @@ fun () ->
  let recorded =
    if Sys.file_exists target then Pift_eval.Trace_io.load target
    else Recorded.record ~mode:(mode_of jit) (find_app target)
  in
  let policy = policy_of ni nt untaint in
  let g, sinks = Explain.flow_graph ~policy recorded in
  Printf.printf "trace:   %s (%d events, %d markers)\n"
    recorded.Recorded.name
    (Pift_trace.Trace.length recorded.Recorded.trace)
    (Array.length recorded.Recorded.markers);
  Printf.printf "policy:  %s\n" (Policy.to_string policy);
  Printf.printf "graph:   %d nodes, %d edges, %d flagged sink check(s)\n%!"
    (Graph.node_count g) (Graph.edge_count g) (List.length sinks);
  let pid_ok =
    match pid_opt with
    | None -> true
    | Some p ->
        if p <> recorded.Recorded.pid then
          Printf.eprintf "note: recording is pid %d; --pid %d selects nothing\n"
            recorded.Recorded.pid p;
        p = recorded.Recorded.pid
  in
  let selected =
    if not pid_ok then []
    else
      List.filter
        (fun (sf : Explain.sink_flow) ->
          match sink_opt with
          | None -> true
          | Some k -> sf.Explain.sf_check = k)
        sinks
  in
  List.iter
    (fun sf -> Format.printf "%a@." Explain.pp_sink_flow sf)
    selected;
  if selected = [] then
    print_endline
      (if sinks = [] then "no sink check is flagged at this policy"
       else "no flagged sink check matches the filter");
  (match dot_out with
  | Some out -> write_dot ~out ~run:recorded.Recorded.name g
  | None -> ());
  match prov_out with
  | Some out -> write_flow_out ~out ~run:recorded.Recorded.name (g, sinks)
  | None -> ()

let why_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE|APP"
          ~doc:
            "A trace file from $(b,record-trace), or an app name (the app \
             is recorded in-memory first).")
  in
  let pid_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pid" ] ~docv:"N" ~doc:"Only sinks of process $(docv).")
  in
  let sink_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sink" ] ~docv:"K"
          ~doc:"Only the $(docv)-th sink check (1-based, in check order).")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the flow graph as Graphviz DOT to $(docv).")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Explain flagged sinks: replay with per-source provenance and \
          print, per sink, one source→…→sink path per origin label.")
    Term.(
      const why $ target $ ni $ nt $ untaint $ jit $ pid_arg $ sink_arg
      $ dot_arg $ prov_out)

(* --- advise --- *)

let advise subset_only =
  let apps =
    if subset_only then Pift_workloads.Droidbench.subset48
    else Pift_workloads.Droidbench.all
  in
  Printf.printf "recording %d apps...\n%!" (List.length apps);
  let corpus = Pift_eval.Advisor.of_apps apps in
  (match Pift_eval.Advisor.recommend corpus with
  | Some c -> Format.printf "recommended %a@." Pift_eval.Advisor.pp_candidate c
  | None ->
      print_endline
        "no policy on the grid classifies this corpus perfectly");
  (* show the paper's operating point for comparison *)
  Format.printf "for comparison %a@." Pift_eval.Advisor.pp_candidate
    (Pift_eval.Advisor.evaluate corpus ~policy:Policy.default)

let advise_cmd =
  let subset =
    Arg.(
      value & flag
      & info [ "subset48" ] ~doc:"Use the 48-app Fig. 11 subset only.")
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Search the (NI, NT) grid for the cheapest policy that \
          classifies the suite perfectly.")
    Term.(const advise $ subset)

(* --- report --- *)

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* A DOT export from `why --dot` / `--prov-out x.dot` is not JSON; it is
   sniffed on raw content and summarized by counting its node and edge
   statements. *)
let report_dot path content =
  let lines = String.split_on_char '\n' content in
  let is_edge l = has_sub l "->" in
  let is_node l =
    let l = String.trim l in
    String.length l >= 2
    && l.[0] = 'n'
    && l.[1] >= '0'
    && l.[1] <= '9'
    && not (is_edge l)
  in
  let count p = List.length (List.filter p lines) in
  Printf.printf "== Graphviz provenance graph (%s) ==\n" path;
  Printf.printf "%d nodes, %d edges\n" (count is_node) (count is_edge)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A --profile-out export is folded-stack text, not JSON; sniffed on raw
   content like DOT and rendered as the subsystem breakdown. *)
let report_folded path content =
  match Obs.Profile.parse_folded content with
  | rows -> Obs.Profile.render ~source:path rows Format.std_formatter ()
  | exception Obs.Profile.Malformed msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2

(* Parse every non-empty line of a metrics/bench/telemetry file; a
   single-object file diffs as that object, a multi-line file as a list
   (paired per line by the diff walk). *)
let json_of_report_file path =
  let lineno = ref 0 in
  let parsed =
    List.filter_map
      (fun line ->
        incr lineno;
        if String.equal (String.trim line) "" then None
        else
          match Obs.Json.of_string line with
          | json -> Some json
          | exception Obs.Json.Parse_error msg ->
              Printf.eprintf "%s:%d: not JSON (%s)\n" path !lineno msg;
              exit 2)
      (String.split_on_char '\n' (read_file path))
  in
  match parsed with
  | [] ->
      Printf.eprintf "%s: no JSON objects found\n" path;
      exit 2
  | [ j ] -> j
  | many -> Obs.Json.List many

(* The regression gate: exit 1 when the comparison regresses, so CI can
   diff a fresh bench/metrics file against the committed baseline. *)
let report_diff ~baseline ~current ~max_ratio ~min_abs =
  let a = json_of_report_file baseline in
  let b = json_of_report_file current in
  let r =
    Obs.Diff.compare_json ~max_ratio ~min_abs ~baseline:a ~current:b ()
  in
  Obs.Diff.render ~label_a:baseline ~label_b:current r Format.std_formatter ();
  if r.Obs.Diff.r_regressions > 0 then exit 1

(* Each line is sniffed independently ([Obs.Sink.classify]): metrics
   snapshots render as before, trace files get the flight-recorder
   summary, provenance exports (flow graphs, attribution) get per-sink
   flow summaries, telemetry lines are collected and rendered as one
   time-series table at the end, and objects from formats this build
   doesn't know are skipped with a warning instead of failing the whole
   report — only parse errors and structurally broken known formats
   exit 2. *)
let report_one path =
  let content = read_file path in
  if Obs.Sink.looks_like_dot content then report_dot path content
  else if Obs.Profile.looks_like_folded content then
    report_folded path content
  else begin
    let telemetry_lines = ref [] in
    let rendered = ref 0 in
    let lineno = ref 0 in
    List.iter
      (fun line ->
        incr lineno;
        if not (String.equal (String.trim line) "") then
          match Obs.Json.of_string line with
          | exception Obs.Json.Parse_error msg ->
              Printf.eprintf "%s:%d: not JSON (%s)\n" path !lineno msg;
              exit 2
          | json -> (
              match Obs.Sink.classify json with
              | Obs.Sink.Metrics_snapshot -> (
                  match
                    Obs.Sink.render_json json Format.std_formatter ()
                  with
                  | () -> incr rendered
                  | exception Obs.Sink.Malformed msg ->
                      Printf.eprintf "%s:%d: %s\n" path !lineno msg;
                      exit 2)
              | Obs.Sink.Trace -> (
                  match
                    Obs.Chrome.summarize json Format.std_formatter ()
                  with
                  | () -> incr rendered
                  | exception Obs.Chrome.Invalid msg ->
                      Printf.eprintf "%s:%d: invalid trace (%s)\n" path
                        !lineno msg;
                      exit 2)
              | Obs.Sink.Flow_graph -> (
                  (* flow-graph files are also valid Perfetto traces;
                     check the trace structure too so CI validates both
                     views in one pass *)
                  match Obs.Chrome.validate json with
                  | Error msg ->
                      Printf.eprintf "%s:%d: invalid flow trace (%s)\n" path
                        !lineno msg;
                      exit 2
                  | Ok _ -> (
                      match
                        Obs.Sink.render_flow_graph_json json
                          Format.std_formatter ()
                      with
                      | () -> incr rendered
                      | exception Obs.Sink.Malformed msg ->
                          Printf.eprintf "%s:%d: %s\n" path !lineno msg;
                          exit 2))
              | Obs.Sink.Attribution -> (
                  match
                    Obs.Sink.render_attribution_json json
                      Format.std_formatter ()
                  with
                  | () -> incr rendered
                  | exception Obs.Sink.Malformed msg ->
                      Printf.eprintf "%s:%d: %s\n" path !lineno msg;
                      exit 2)
              | Obs.Sink.Telemetry ->
                  (* collected, not rendered per line: the series view
                     needs every snapshot of the file at once *)
                  telemetry_lines := json :: !telemetry_lines;
                  incr rendered
              | Obs.Sink.Unknown keys ->
                  Printf.eprintf
                    "%s:%d: skipping unrecognized snapshot (top-level \
                     keys: %s)\n"
                    path !lineno
                    (if keys = [] then "none"
                     else String.concat ", " keys)))
      (String.split_on_char '\n' content);
    (match List.rev !telemetry_lines with
    | [] -> ()
    | lines -> (
        match Obs.Telemetry.render_json_lines lines Format.std_formatter () with
        | () -> ()
        | exception Obs.Telemetry.Malformed msg ->
            Printf.eprintf "%s: %s\n" path msg;
            exit 2));
    if !rendered = 0 then begin
      Printf.eprintf "%s: no snapshots found\n" path;
      exit 2
    end
  end

let report path second diff max_ratio min_abs =
  match (diff, second) with
  | true, Some current ->
      report_diff ~baseline:path ~current ~max_ratio ~min_abs
  | true, None ->
      Printf.eprintf
        "report: --diff compares two files (pift report --diff BASELINE \
         CURRENT)\n";
      exit 2
  | false, Some _ ->
      Printf.eprintf "report: a second file only makes sense with --diff\n";
      exit 2
  | false, None -> report_one path

let report_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL metrics file from --metrics-out, a Chrome trace JSON \
             from --trace-out, a telemetry series from --telemetry-out, \
             a folded-stack profile from --profile-out, a provenance \
             export from --prov-out or $(b,why) (flow-graph JSON, \
             attribution JSON, or Graphviz DOT) — sniffed per line (DOT \
             and folded stacks by raw content).  With $(b,--diff), the \
             baseline file.")
  in
  let second =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT"
          ~doc:
            "Second file for $(b,--diff): the current run, compared \
             against the baseline in the first position.")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Structurally compare two metrics/bench JSON files instead of \
             rendering one.  Numeric fields pair by path (named lists by \
             their $(b,name) member), each with a worse-direction \
             inferred from its name; exits 1 when any field regresses \
             past the thresholds, 0 otherwise — the CI regression gate.")
  in
  let max_ratio =
    Arg.(
      value
      & opt float Obs.Diff.default_max_ratio
      & info [ "max-ratio" ] ~docv:"R"
          ~doc:
            "Regression threshold for $(b,--diff): a numeric field fails \
             the gate when it is more than $(docv) times worse than the \
             baseline (default 1.25; CI uses 2.0).")
  in
  let min_abs =
    Arg.(
      value & opt float 0.
      & info [ "min-abs" ] ~docv:"X"
          ~doc:
            "Absolute-change floor for $(b,--diff): changes smaller than \
             $(docv) in absolute terms never regress, whatever the \
             ratio — keeps sub-millisecond microbenchmark noise from \
             failing the gate.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the snapshots of a previous run: metrics (span timings, \
          counters, gauges, histograms), flight-recorder trace summaries \
          (per-phase time, worker utilization, slowest spans), telemetry \
          time series (sparkline per metric), overhead-attribution \
          profiles (per-subsystem share), or provenance exports (per-sink \
          flow and attribution summaries).  With $(b,--diff), compare two \
          metrics/bench files and gate on regressions.")
    Term.(const report $ path $ second $ diff $ max_ratio $ min_abs)

(* --- trace-stats --- *)

let trace_stats name =
  let app = find_app name in
  let recorded = Recorded.record app in
  let stats = Pift_eval.Tracestats.analyse recorded in
  Pift_eval.Tracestats.render_fig2 stats Format.std_formatter ()

let trace_stats_cmd =
  let app_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application to trace.")
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:"Load/store distance distributions of one app's trace (Fig. 2).")
    Term.(const trace_stats $ app_arg)

(* --- serve --- *)

module Service = Pift_service

(* One block per tenant, identical bytes whether produced by the
   sharded engine or by isolated replays — the CI determinism leg
   [cmp]s the two, so everything else (engine stats, progress) goes to
   stderr. *)
let print_tenant_block ?(dropped = 0) ~name ~prov verdicts
    (s : Tracker.stats) =
  Printf.printf "tenant %s\n" name;
  List.iter
    (fun (kind, flagged, origins) ->
      Printf.printf "  sink %-6s -> %s%s\n" kind
        (if flagged then "TAINTED" else "clean")
        (if prov && origins <> [] then
           " [" ^ String.concat ", " origins ^ "]"
         else ""))
    verdicts;
  Printf.printf
    "  stats: %d events, %d taint ops, %d untaint ops, %d lookups, max %d \
     tainted bytes, %d ranges\n"
    s.Tracker.events s.Tracker.taint_ops s.Tracker.untaint_ops
    s.Tracker.lookups s.Tracker.max_tainted_bytes s.Tracker.max_ranges;
  (* Only [--drop-when-full] loses items; a lossless run prints nothing
     here, so its blocks stay byte-identical to [--isolated]. *)
  if dropped > 0 then
    Printf.printf "  dropped %d items (possible false negatives)\n" dropped

(* Per-tenant blocks for a list of engine pids, in the given order.
   Shared by serve (source order) and restore (snapshot order); the
   crash-recovery CI leg [cmp]s this output between an interrupted and
   an uninterrupted serve, so it must depend only on tenant state. *)
let print_tenant_blocks eng ~prov pids =
  List.iter
    (fun pid ->
      match Service.Engine.snapshot_tenant eng ~pid with
      | None -> ()
      | Some ts ->
          print_tenant_block ~dropped:ts.Service.Engine.ts_dropped
            ~name:ts.Service.Engine.ts_name ~prov
            (List.map
               (fun (v : Service.Engine.verdict) ->
                 (v.Service.Engine.v_kind, v.Service.Engine.v_flagged,
                  v.Service.Engine.v_origins))
               ts.Service.Engine.ts_verdicts)
            ts.Service.Engine.ts_stats)
    pids

let print_engine_stats eng shards =
  let st = Service.Engine.stats eng in
  Printf.eprintf
    "engine: %d shard(s), %d tenant(s), %d items (%d events), %d batches, \
     %d dropped\n"
    shards st.Service.Engine.st_tenants st.Service.Engine.st_items
    st.Service.Engine.st_events st.Service.Engine.st_batches
    st.Service.Engine.st_dropped

let snapshot_file dir = Filename.concat dir "engine.piftsnap"

(* Crash injection for the recovery CI leg: SIGKILL ourselves right
   after writing the Nth snapshot.  A self-delivered SIGKILL is a real
   crash — nothing is flushed, no cleanup runs — landing at the
   adversarial point where the snapshot exists on disk but everything
   the engine did afterwards is lost. *)
let crash_after_snapshots =
  match Sys.getenv_opt "PIFT_CRASH_AFTER_SNAPSHOTS" with
  | Some s -> int_of_string_opt s
  | None -> None

(* Run the engine over [sources], snapshotting at every engine-idle
   segment boundary when a snapshot directory is configured, then print
   the tenant blocks in source order. *)
let serve_engine eng ~prov ~shards ~snapshot_dir ~snapshot_every sources =
  let segment = if snapshot_dir = None then None else snapshot_every in
  let snapshots = ref 0 in
  let on_idle =
    Option.map
      (fun dir () ->
        Service.Snapshot.save
          ~sources:(Service.Snapshot.source_entries sources)
          eng (snapshot_file dir);
        incr snapshots;
        match crash_after_snapshots with
        | Some n when !snapshots >= n ->
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | _ -> ())
      snapshot_dir
  in
  Service.Ingest.run ?segment ?on_idle eng sources;
  print_tenant_blocks eng ~prov
    (List.map (fun (s : Service.Ingest.source) -> s.Service.Ingest.src_pid)
       sources);
  print_engine_stats eng shards

let serve files shards isolated prov ni nt untaint batch queue drop
    snapshot_dir snapshot_every restore =
  input_errors @@ fun () ->
  let policy = policy_of ni nt untaint in
  if isolated then
    List.iter
      (fun path ->
        let r = Pift_eval.Trace_io.load path in
        let rp = Recorded.replay ~policy ~with_origins:prov r in
        let verdicts =
          if prov then
            List.map
              (fun (ov : Recorded.origin_verdict) ->
                (ov.Recorded.ov_kind, ov.Recorded.ov_flagged,
                 ov.Recorded.ov_origins))
              rp.Recorded.origins
          else
            List.map
              (fun (v : Recorded.verdict) -> (v.Recorded.kind, v.Recorded.flagged, []))
              rp.Recorded.verdicts
        in
        print_tenant_block ~name:r.Recorded.name ~prov verdicts
          rp.Recorded.stats)
      files
  else if restore then begin
    (* Resume a killed serve: engine config comes from the snapshot
       manifest (a mismatched policy would diverge from the
       uninterrupted run — only the shard count is free), tenants are
       restored, and each source re-opens at its recorded cursor.
       Stdout is then byte-identical to a run that was never killed. *)
    let dir =
      match snapshot_dir with
      | Some d -> d
      | None -> failwith "serve: --restore requires --snapshot-dir"
    in
    if files <> [] then
      failwith "serve: --restore reads its sources from the snapshot; drop \
                the FILE arguments";
    let snap = Service.Snapshot.load (snapshot_file dir) in
    let m = snap.Service.Snapshot.manifest in
    let mprov = m.Service.Snapshot.m_with_origins in
    Service.Engine.with_engine ~shards ~policy:m.Service.Snapshot.m_policy
      ~queue_capacity:queue ~batch ~pid_range:m.Service.Snapshot.m_pid_range
      ~drop_when_full:drop ~with_origins:mprov (fun eng ->
        Service.Snapshot.restore_tenants eng snap;
        let sources =
          List.map
            (fun (se : Service.Snapshot.source_entry) ->
              if se.Service.Snapshot.se_path = "" then
                failwith
                  (Printf.sprintf
                     "serve: snapshot source %s has no file to resume from"
                     se.Service.Snapshot.se_name);
              let s =
                Service.Ingest.of_file ~pid:se.Service.Snapshot.se_pid
                  se.Service.Snapshot.se_path
              in
              Service.Ingest.skip s se.Service.Snapshot.se_cursor;
              s)
            snap.Service.Snapshot.sources
        in
        serve_engine eng ~prov:mprov ~shards ~snapshot_dir ~snapshot_every
          sources)
  end
  else begin
    if files = [] then failwith "serve: no trace files given";
    Service.Engine.with_engine ~shards ~policy ~queue_capacity:queue ~batch
      ~drop_when_full:drop ~with_origins:prov (fun eng ->
        let sources =
          List.mapi
            (fun i path ->
              Service.Ingest.of_file ~pid:(Service.Ingest.tenant_pid i) path)
            files
        in
        serve_engine eng ~prov ~shards ~snapshot_dir ~snapshot_every sources)
  end

let serve_cmd =
  let files =
    Arg.(
      value
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Trace files from record-trace (text or binary), one tenant \
                each.  Omitted with $(b,--restore): sources come from the \
                snapshot.")
  in
  let shards =
    let doc =
      "Shard count.  Tenants are partitioned across shards by pid range; \
       per-tenant output is byte-identical at every shard count."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let isolated =
    let doc =
      "Bypass the engine: replay each trace in isolation and print the \
       same per-tenant blocks — the reference the sharded engine is \
       byte-compared against."
    in
    Arg.(value & flag & info [ "isolated" ] ~doc)
  in
  let prov =
    let doc =
      "Thread a provenance sidecar through every tenant: sink lines gain \
       their origin sets."
    in
    Arg.(value & flag & info [ "prov" ] ~doc)
  in
  let batch =
    let doc =
      "Rows per queue batch.  A run of one process's non-memory \
       instructions takes one row."
    in
    Arg.(value & opt int 128 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let queue =
    let doc = "Shard queue capacity, in batches." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let drop =
    let doc =
      "Drop batches instead of blocking the producer when a shard queue is \
       full (lossy: each tenant block reports its dropped items as \
       possible false negatives, and the stderr engine line the total)."
    in
    Arg.(value & flag & info [ "drop-when-full" ] ~doc)
  in
  let snapshot_dir =
    let doc =
      "Write a PIFTSNAP1 snapshot of all tenant state (and ingest \
       cursors) to $(docv)/engine.piftsnap at every snapshot point.  \
       Writes are atomic and fsynced, so they survive process kill and \
       power loss: a crash always leaves a complete snapshot."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR" ~doc)
  in
  let snapshot_every =
    let doc =
      "Snapshot after every $(docv) ingested items (and once at the end).  \
       Without this, $(b,--snapshot-dir) snapshots only at the end."
    in
    Arg.(
      value & opt (some int) None & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let restore =
    let doc =
      "Resume from $(b,--snapshot-dir)'s snapshot: restore every tenant, \
       re-open each source at its recorded cursor, and continue.  Engine \
       policy/origins come from the snapshot manifest (only \
       $(b,--shards) is free); stdout is byte-identical to a run that \
       was never interrupted."
    in
    Arg.(value & flag & info [ "restore" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Ingest several recorded traces as tenants of one long-lived \
          sharded engine and print each tenant's verdicts and stats.  \
          Per-tenant stdout is byte-identical to $(b,--isolated) replays \
          at any $(b,--shards) count.")
    Term.(
      const serve $ files $ shards $ isolated $ prov $ ni $ nt $ untaint
      $ batch $ queue $ drop $ snapshot_dir $ snapshot_every
      $ restore)

let snapshot_inspect path =
  input_errors @@ fun () ->
  let snap = Service.Snapshot.load path in
  let m = snap.Service.Snapshot.manifest in
  Printf.printf
    "snapshot: %d shard(s), pid-range %d, policy %s, origins %s\n"
    m.Service.Snapshot.m_shards m.Service.Snapshot.m_pid_range
    (Policy.to_string m.Service.Snapshot.m_policy)
    (if m.Service.Snapshot.m_with_origins then "on" else "off");
  List.iter
    (fun (se : Service.Snapshot.source_entry) ->
      Printf.printf "source %s pid %d cursor %d%s\n"
        se.Service.Snapshot.se_name se.Service.Snapshot.se_pid
        se.Service.Snapshot.se_cursor
        (if se.Service.Snapshot.se_path = "" then ""
         else " path " ^ se.Service.Snapshot.se_path))
    snap.Service.Snapshot.sources;
  List.iter
    (fun (tp : Service.Engine.tenant_persisted) ->
      let st = tp.Service.Engine.tp_state in
      let ranges =
        List.concat_map snd st.Tracker.p_store |> List.length
      in
      let bytes =
        List.concat_map snd st.Tracker.p_store
        |> List.fold_left (fun a r -> a + Pift_util.Range.length r) 0
      in
      Printf.printf
        "tenant %s pid %d: %d verdicts, %d events, %d tainted bytes, %d \
         ranges\n"
        tp.Service.Engine.tp_name tp.Service.Engine.tp_pid
        (List.length tp.Service.Engine.tp_verdicts)
        st.Tracker.p_stats.Tracker.events bytes ranges)
    snap.Service.Snapshot.tenants

let snapshot_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SNAP" ~doc:"A PIFTSNAP1 snapshot file.")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Inspect a PIFTSNAP1 snapshot: manifest, per-source ingest \
          cursors, and a one-line summary of each persisted tenant.")
    Term.(const snapshot_inspect $ path)

let restore_run path shards =
  input_errors @@ fun () ->
  let snap = Service.Snapshot.load path in
  let m = snap.Service.Snapshot.manifest in
  let shards =
    match shards with Some n -> n | None -> m.Service.Snapshot.m_shards
  in
  let prov = m.Service.Snapshot.m_with_origins in
  Service.Engine.with_engine ~shards ~policy:m.Service.Snapshot.m_policy
    ~pid_range:m.Service.Snapshot.m_pid_range ~with_origins:prov (fun eng ->
      Service.Snapshot.restore_tenants eng snap;
      print_tenant_blocks eng ~prov
        (List.map
           (fun (tp : Service.Engine.tenant_persisted) ->
             tp.Service.Engine.tp_pid)
           snap.Service.Snapshot.tenants);
      print_engine_stats eng shards)

let restore_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SNAP" ~doc:"A PIFTSNAP1 snapshot file.")
  in
  let shards =
    let doc =
      "Shard count for the restored engine (default: the snapshot's)."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Restore a snapshot into a fresh engine and print every tenant's \
          verdict and stats block, without resuming ingestion — the \
          snapshotted state, rendered exactly as $(b,serve) would.")
    Term.(const restore_run $ path $ shards)

let main_cmd =
  let doc = "PIFT: predictive information-flow tracking (ASPLOS'16 reproduction)" in
  Cmd.group
    (Cmd.info "pift" ~version:"1.0.0" ~doc)
    [
      list_apps_cmd;
      run_app_cmd;
      why_cmd;
      sweep_cmd;
      experiment_cmd;
      trace_stats_cmd;
      advise_cmd;
      record_trace_cmd;
      analyze_trace_cmd;
      convert_cmd;
      serve_cmd;
      snapshot_cmd;
      restore_cmd;
      report_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
