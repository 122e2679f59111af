module Range = Pift_util.Range
module Trace = Pift_trace.Trace
module Row = Pift_trace.Row
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

let record ?mode ?flight (app : App.t) =
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
    Vm.create ?mode ~natives ?flight env (app.App.program ())
  in
  (match Vm.run vm with `Ok | `Uncaught _ -> ());
  Trace.trim trace;
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

type item = Item_event of Pift_trace.Event.t | Item_marker of int * marker

let walk t ~row ~marker =
  Trace.walk t.trace
    ~marks:(Array.map fst t.markers)
    ~row
    ~mark:(fun i ->
      let seq, m = t.markers.(i) in
      marker seq m)

let[@inline] track tracker trace rows o =
  let tag = rows.(o) and seq = rows.(o + 2) in
  if tag = Row.tag_other then Tracker.on_other tracker ~seq ~n:rows.(o + 5)
  else begin
    let pid = rows.(o + 1) and k = rows.(o + 3) in
    let r = Trace.range trace rows o in
    if tag = Row.tag_load then Tracker.on_load tracker ~pid ~seq ~k r
    else Tracker.on_store tracker ~pid ~seq ~k r
  end

(* [replay], and the window depth and NI floor its tracker ended at. *)
let run ?store ?telemetry ?(with_origins = false) ~policy t =
  let store =
    match store with Some store -> store | None -> Store.create ()
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
  let bump =
    match telemetry with
    | None -> None
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
        Some
          (fun n ->
            for _ = 1 to n do
              Telemetry.bump te
            done)
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
  (* Algorithm 1 straight from the rows: one [on_other ~n] per counted
     row and the interned range per load or store, so the walk builds
     no event.  Telemetry still counts events, so its snapshots land at
     the same counts. *)
  walk t
    ~row:(fun rows o ->
      (match bump with None -> () | Some bump -> bump (Row.count rows o));
      track tracker t.trace rows o)
    ~marker:on_marker;
  let verdicts = List.rev !verdicts in
  ( {
      verdicts;
      flagged = List.exists (fun (v : verdict) -> v.flagged) verdicts;
      stats = Tracker.stats tracker;
      origins = List.rev !origin_verdicts;
    },
    Tracker.depth tracker,
    Tracker.ni_floor tracker )

let replay ?store ?telemetry ?with_origins ~policy t =
  let rp, _, _ = run ?store ?telemetry ?with_origins ~policy t in
  rp

type grid = { answers : ((int * int) * replay) list; replays : int }

(* Largest cell first, NI before NT: a replay at (NI, NT) whose NI
   floor is [lo] and depth d answers every listed cell of [lo, NI] x
   [min d NT, NT] not yet answered (Tracker.ni_floor), and the next
   replay runs at the largest cell still unanswered.  Every cell after
   the one just replayed, in this order, is answered, so the scan goes
   on from it, and no unanswered cell has an NI above the replay's. *)
let replay_grid ?telemetry ?with_origins ?untaint ~nis ~nts t =
  let nis = Array.of_list (List.sort_uniq compare nis)
  and nts = Array.of_list (List.sort_uniq compare nts) in
  let cells = Array.map (fun _ -> Array.map (fun _ -> None) nts) nis in
  let rec walk replays i j =
    if i < 0 then replays
    else if j < 0 then walk replays (i - 1) (Array.length nts - 1)
    else if Option.is_some cells.(i).(j) then walk replays i (j - 1)
    else begin
      let ni = nis.(i) and nt = nts.(j) in
      let policy = Pift_core.Policy.make ?untaint ~ni ~nt () in
      let rp, depth, lo = run ?telemetry ?with_origins ~policy t in
      let floor = min depth nt in
      Array.iteri
        (fun i' ni' ->
          Array.iteri
            (fun j' nt' ->
              if
                lo <= ni' && floor <= nt' && nt' <= nt
                && Option.is_none cells.(i').(j')
              then cells.(i').(j') <- Some rp)
            nts)
        nis;
      walk (replays + 1) i (j - 1)
    end
  in
  let replays = walk 0 (Array.length nis - 1) (Array.length nts - 1) in
  let answers =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i ni ->
              Array.to_list
                (Array.mapi
                   (fun j nt -> ((ni, nt), Option.get cells.(i).(j)))
                   nts))
            nis))
  in
  { answers; replays }

(* Cut where LGRoot-like recordings change cost: their taint explodes
   above NI 13, so a band there holds few NIs but many replays. *)
let band_cuts = [ 10; 14; 17 ]

let ni_bands nis =
  let rec cut nis = function
    | [] -> [ nis ]
    | c :: cs ->
        let lo, hi = List.partition (fun ni -> ni <= c) nis in
        lo :: cut hi cs
  in
  List.filter (( <> ) []) (cut (List.sort_uniq compare nis) band_cuts)

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
  (* The walk hands over the rows in trace order, so event [!i] is the
     one being observed. *)
  let i = ref 0 in
  walk t
    ~row:(fun rows o ->
      for j = 0 to Row.count rows o - 1 do
        Full_dift.observe dift (Trace.insn t.trace !i)
          (Trace.event t.trace rows o j);
        incr i
      done)
    ~marker:on_marker;
  let dift_verdicts = List.rev !verdicts in
  {
    dift_verdicts;
    dift_flagged = List.exists (fun (v : verdict) -> v.flagged) dift_verdicts;
    propagations = Full_dift.propagations dift;
    dift_origins = List.rev !origin_verdicts;
  }
