module Range = Pift_util.Range
module Trace = Pift_trace.Trace
module Cpu = Pift_machine.Cpu
module Env = Pift_runtime.Env
module Manager = Pift_runtime.Manager
module Vm = Pift_dalvik.Vm
module App = Pift_workloads.App
module Tracker = Pift_core.Tracker
module Store = Pift_core.Store
module Full_dift = Pift_baseline.Full_dift

type marker =
  | Source of { kind : string; range : Range.t }
  | Sink of { kind : string; ranges : Range.t list }

type t = {
  name : string;
  trace : Trace.t;
  markers : (int * marker) array;
  pid : int;
  bytecodes : int;
  frag_hits : int;
  frag_misses : int;
}

let record ?mode ?flight ?profile (app : App.t) =
  Pift_obs.Profile.span profile "record" @@ fun () ->
  let trace = Trace.create () in
  let env = Env.create ~sink:(Trace.sink trace) () in
  let markers = ref [] in
  let seq () = Cpu.global_seq env.Env.cpu in
  let stamp name =
    match flight with
    | None -> ()
    | Some f -> Pift_obs.Flight.instant f name
  in
  Manager.subscribe_sources env.Env.manager (fun ~pid:_ ~kind r ->
      stamp "source";
      markers := (seq (), Source { kind; range = r }) :: !markers);
  Manager.subscribe_checks env.Env.manager (fun ~pid:_ ~kind ranges ->
      stamp "sink-check";
      markers := (seq (), Sink { kind; ranges }) :: !markers);
  let natives = Pift_runtime.Api.registry @ app.App.natives in
  let vm =
    Vm.create ?mode ~natives ?flight ?profile env (app.App.program ())
  in
  (match Vm.run vm with `Ok | `Uncaught _ -> ());
  {
    name = app.App.name;
    trace;
    markers = Array.of_list (List.rev !markers);
    pid = Env.pid env;
    bytecodes = Vm.bytecodes_executed vm;
    frag_hits = Vm.frag_cache_hits vm;
    frag_misses = Vm.frag_cache_misses vm;
  }

type verdict = { kind : string; flagged : bool }

type origin_verdict = {
  ov_kind : string;
  ov_flagged : bool;
  ov_origins : string list;
}

type replay = {
  verdicts : verdict list;
  flagged : bool;
  stats : Tracker.stats;
  origins : origin_verdict list;
}

(* Walk events and markers in global-sequence order, calling [on_marker]
   for every marker once all events up to its timestamp have been fed. *)
let interleave t ~observe ~on_marker =
  let mi = ref 0 in
  let n = Array.length t.markers in
  let apply_until seq =
    while !mi < n && fst t.markers.(!mi) <= seq do
      let mseq, m = t.markers.(!mi) in
      on_marker mseq m;
      incr mi
    done
  in
  apply_until 0;
  Trace.iter
    (fun e ->
      observe e;
      apply_until e.Pift_trace.Event.seq)
    t.trace;
  apply_until max_int

type item = Item_event of Pift_trace.Event.t | Item_marker of int * marker

(* Pull-stream twin of [interleave]: the same order, one item per call.
   A marker is due once every event up to its timestamp has been
   emitted, so markers between two events surface after the later one —
   exactly where [interleave] fires [on_marker] and where the trace
   writers serialize them.  The engine's ingest front merges several of
   these streams without materialising any of them. *)
let items t =
  let mi = ref 0 and ei = ref 0 in
  let nm = Array.length t.markers in
  let ne = Trace.length t.trace in
  let last_seq = ref 0 in
  fun () ->
    if !mi < nm && fst t.markers.(!mi) <= !last_seq then begin
      let mseq, m = t.markers.(!mi) in
      incr mi;
      Some (Item_marker (mseq, m))
    end
    else if !ei < ne then begin
      let e = Trace.get t.trace !ei in
      incr ei;
      last_seq := e.Pift_trace.Event.seq;
      Some (Item_event e)
    end
    else if !mi < nm then begin
      let mseq, m = t.markers.(!mi) in
      incr mi;
      Some (Item_marker (mseq, m))
    end
    else None

let replay ?store ?telemetry ?profile ?(with_origins = false) ~policy t =
  Pift_obs.Profile.span profile "replay" @@ fun () ->
  let store =
    match store with Some store -> store | None -> Store.create ()
  in
  let store =
    match profile with
    | Some p -> Store.with_profile p store
    | None -> store
  in
  (* Sink-time origin sets must be captured at the sink check (later
     untainting can erase them), hence the [origin_verdict] list rather
     than a final query. *)
  let prov =
    if with_origins then Some (Pift_core.Provenance.create ()) else None
  in
  let tracker = Tracker.create ~policy ~store ?prov () in
  (* Telemetry sources read the tracker's live counters; they replace any
     previous replay's bindings on a shared per-slot instance (a sweep
     replays every cell against the same one). *)
  let observe =
    match telemetry with
    | None -> Tracker.observe tracker
    | Some te ->
        let module Telemetry = Pift_obs.Telemetry in
        let source name f =
          Telemetry.set_source te ~name (fun () -> float_of_int (f ()))
        in
        source "tainted_bytes" (fun () ->
            Tracker.current_tainted_bytes tracker);
        source "ranges" (fun () -> Tracker.current_ranges tracker);
        source "window_used" (fun () ->
            Tracker.window_used tracker ~pid:t.pid);
        fun e ->
          Telemetry.bump te;
          Tracker.observe tracker e
  in
  let verdicts = ref [] in
  let origin_verdicts = ref [] in
  let on_marker _ = function
    | Source { kind; range } ->
        Tracker.taint_source ~kind tracker ~pid:t.pid range
    | Sink { kind; ranges } ->
        let flagged =
          List.exists (fun r -> Tracker.is_tainted tracker ~pid:t.pid r) ranges
        in
        verdicts := { kind; flagged } :: !verdicts;
        if with_origins then begin
          let origins =
            List.sort_uniq String.compare
              (List.concat_map
                 (fun r -> Tracker.origins_of tracker ~pid:t.pid r)
                 ranges)
          in
          origin_verdicts :=
            { ov_kind = kind; ov_flagged = flagged; ov_origins = origins }
            :: !origin_verdicts
        end
  in
  interleave t ~observe ~on_marker;
  let verdicts = List.rev !verdicts in
  {
    verdicts;
    flagged = List.exists (fun (v : verdict) -> v.flagged) verdicts;
    stats = Tracker.stats tracker;
    origins = List.rev !origin_verdicts;
  }

type dift_replay = {
  dift_verdicts : verdict list;
  dift_flagged : bool;
  propagations : int;
  dift_origins : origin_verdict list;
}

let replay_dift ?(with_origins = false) t =
  if not (Trace.has_insns t.trace) then
    invalid_arg
      (Printf.sprintf
         "Recorded.replay_dift: recording %s was decoded from a trace file \
          and has no instructions; full DIFT needs a live recording"
         t.name);
  let dift = Full_dift.create ~track_origins:with_origins () in
  let verdicts = ref [] in
  let origin_verdicts = ref [] in
  let on_marker _ = function
    | Source { kind; range } ->
        Full_dift.taint_source ~kind dift ~pid:t.pid range
    | Sink { kind; ranges } ->
        let flagged =
          List.exists
            (fun r -> Full_dift.is_tainted dift ~pid:t.pid r)
            ranges
        in
        verdicts := { kind; flagged } :: !verdicts;
        if with_origins then begin
          let origins =
            List.sort_uniq String.compare
              (List.concat_map
                 (fun r -> Full_dift.origins_of dift ~pid:t.pid r)
                 ranges)
          in
          origin_verdicts :=
            { ov_kind = kind; ov_flagged = flagged; ov_origins = origins }
            :: !origin_verdicts
        end
  in
  (* [interleave] feeds the events in trace order, so event [!i] is the
     one being observed. *)
  let i = ref 0 in
  let observe e =
    Full_dift.observe dift (Trace.insn t.trace !i) e;
    incr i
  in
  interleave t ~observe ~on_marker;
  let dift_verdicts = List.rev !verdicts in
  {
    dift_verdicts;
    dift_flagged = List.exists (fun (v : verdict) -> v.flagged) dift_verdicts;
    propagations = Full_dift.propagations dift;
    dift_origins = List.rev !origin_verdicts;
  }
