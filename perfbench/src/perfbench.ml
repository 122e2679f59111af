(* The benchmark's measuring program.  [run.py] drives it in three
   steps, each a separate process:

     perfbench gen     --workload W --seed N --dir D   seeded inputs
     perfbench ref     --workload W --dir D            reference results
     perfbench measure --workload W --dir D [--trace]  one timed iteration

   [gen] writes the only inputs the measured code sees: binary trace
   files for the serve workloads, an app list for sweep-grid.  [ref]
   computes the isolated reference once per invocation.  [measure] runs
   one iteration through the same library entry points as [pift serve]
   and [pift sweep], checks every result against the reference, and
   prints one JSON object of raw figures on its last stdout line.  One
   process per iteration lets [run.py] read each iteration's peak RSS
   from [wait4]. *)

module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io
module Accuracy = Pift_eval.Accuracy
module Engine = Pift_service.Engine
module Ingest = Pift_service.Ingest
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Tracker = Pift_core.Tracker
module App = Pift_workloads.App

(* Pinned engine and pool sizes: one producer and one consumer domain
   for serve, two workers for sweep. *)
let shards = 1
let jobs = 2
let policy = Policy.default

type workload = Serve_wide | Serve_deep | Sweep_grid

let workload_of_string = function
  | "serve-wide" -> Serve_wide
  | "serve-deep" -> Serve_deep
  | "sweep-grid" -> Sweep_grid
  | w -> failwith ("perfbench: unknown workload " ^ w)

(* serve-deep is [pift serve --prov]; the other serve workload runs
   without the provenance sidecar. *)
let with_origins = function Serve_deep -> true | Serve_wide | Sweep_grid -> false

(* --- clock ------------------------------------------------------------ *)

(* Nanoseconds as an immediate int: the external is noalloc and unboxed,
   so timing the producer's hot path allocates nothing and leaves
   [ingest.alloc_words_per_item] exact. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let secs ns = float_of_int ns *. 1e-9

(* --- inputs ----------------------------------------------------------- *)

(* An app spec is one line of an app list: [droidbench NAME],
   [browser PAGES] or [lgroot ROUNDS PAYLOAD_CHARS]. *)
let app_of_spec spec =
  match String.split_on_char ' ' spec with
  | [ "droidbench"; name ] -> (
      match Pift_workloads.Droidbench.find name with
      | Some app -> app
      | None -> failwith ("perfbench: no DroidBench app " ^ name))
  | [ "browser"; pages ] ->
      Pift_workloads.Browser.sized ~pages:(int_of_string pages)
  | [ "lgroot"; rounds; payload ] ->
      Pift_workloads.Malware.lgroot_sized ~rounds:(int_of_string rounds)
        ~payload_chars:(int_of_string payload)
  | _ -> failwith ("perfbench: bad app spec: " ^ spec)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let droidbench_names apps = List.map (fun (a : App.t) -> a.App.name) apps

(* Fixed counts per kind, so every seed carries the same mix; the seed
   picks the DroidBench apps, the LGRoot sizes and the tenant order. *)
let serve_wide_specs rng =
  let names = Array.of_list (droidbench_names Pift_workloads.Droidbench.all) in
  let droid =
    List.init 68 (fun _ ->
        "droidbench " ^ names.(Random.State.int rng (Array.length names)))
  in
  let browsers = List.init 12 (fun i -> Printf.sprintf "browser %d" (1 + (i mod 2))) in
  let lgroots =
    List.init 48 (fun _ ->
        Printf.sprintf "lgroot 1 %d" (112 + (8 * Random.State.int rng 5)))
  in
  shuffle rng (droid @ browsers @ lgroots)

(* Two long taint-carrying tenants, ~2 M events each. *)
let serve_deep_specs rng =
  List.init 2 (fun _ ->
      Printf.sprintf "lgroot 21 %d" (1024 + (8 * Random.State.int rng 5)))

(* The Fig. 11 subset plus one LGRoot of ~0.5 M events, in seeded
   order.  The LGRoot band is narrow because the sweep holds every
   recording in memory: its size sets peak RSS. *)
let sweep_grid_specs rng =
  let lgroot = Printf.sprintf "lgroot 5 %d" (1016 + (4 * Random.State.int rng 5)) in
  shuffle rng
    (lgroot
    :: List.map (fun n -> "droidbench " ^ n)
         (droidbench_names Pift_workloads.Droidbench.subset48))

let inputs_file dir = Filename.concat dir "inputs.txt"
let ref_file dir = Filename.concat dir "ref.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let gen workload ~seed ~dir =
  let rng = Random.State.make [| seed |] in
  match workload with
  | Sweep_grid -> write_lines (inputs_file dir) (sweep_grid_specs rng)
  | Serve_wide | Serve_deep ->
      let specs =
        if workload = Serve_wide then serve_wide_specs rng
        else serve_deep_specs rng
      in
      (* Identical specs record identical traces: record each once. *)
      let recorded = Hashtbl.create 64 in
      let files =
        List.mapi
          (fun i spec ->
            let r =
              match Hashtbl.find_opt recorded spec with
              | Some r -> r
              | None ->
                  let r = Recorded.record (app_of_spec spec) in
                  Hashtbl.add recorded spec r;
                  r
            in
            let file = Printf.sprintf "tenant-%03d.piftbin" i in
            Trace_io.save ~format:Trace_io.Binary r (Filename.concat dir file);
            file)
          specs
      in
      write_lines (inputs_file dir) files

let trace_files dir =
  List.map (Filename.concat dir) (read_lines (inputs_file dir))

let apps dir = List.map app_of_spec (read_lines (inputs_file dir))

(* --- results and the reference -------------------------------------- *)

(* One line per tenant: index, name, sink verdicts (with origin sets
   when the workload tracks them) and the tracker stats.  The engine
   and the isolated replay must print the same line. *)
let tenant_line i name verdicts (s : Tracker.stats) =
  let verdict (kind, flagged, origins) =
    Printf.sprintf "%s:%s[%s]" kind
      (if flagged then "T" else "c")
      (String.concat "," origins)
  in
  Printf.sprintf "tenant %d %s | %s | %d %d %d %d %d %d %d" i name
    (String.concat " " (List.map verdict verdicts))
    s.Tracker.events s.Tracker.taint_ops s.Tracker.untaint_ops
    s.Tracker.lookups s.Tracker.tainted_loads s.Tracker.max_tainted_bytes
    s.Tracker.max_ranges

let replay_line ~prov i (r : Recorded.t) (rp : Recorded.replay) =
  let verdicts =
    if prov then
      List.map
        (fun (ov : Recorded.origin_verdict) ->
          (ov.Recorded.ov_kind, ov.Recorded.ov_flagged, ov.Recorded.ov_origins))
        rp.Recorded.origins
    else
      List.map
        (fun (v : Recorded.verdict) -> (v.Recorded.kind, v.Recorded.flagged, []))
        rp.Recorded.verdicts
  in
  tenant_line i r.Recorded.name verdicts rp.Recorded.stats

let cell_line ((ni, nt), (c : Accuracy.confusion)) =
  Printf.sprintf "cell %d %d %d %d %d %d" ni nt c.Accuracy.tp c.Accuracy.fp
    c.Accuracy.tn c.Accuracy.fn

let trace_length app = Pift_trace.Trace.length (Recorded.record app).Recorded.trace

(* The serve reference is the [pift serve --isolated] path: load each
   file whole and replay it alone.  The sweep reference is a [jobs = 1]
   sweep, plus the summed trace length the grid replays per cell. *)
let reference workload ~dir =
  let lines =
    match workload with
    | Serve_wide | Serve_deep ->
        let prov = with_origins workload in
        List.mapi
          (fun i file ->
            let r = Trace_io.load file in
            replay_line ~prov i r (Recorded.replay ~policy ~with_origins:prov r))
          (trace_files dir)
    | Sweep_grid ->
        let apps = apps dir in
        let events = List.fold_left (fun acc a -> acc + trace_length a) 0 apps in
        Printf.sprintf "events %d" events
        :: List.map cell_line (Accuracy.sweep ~jobs:1 apps).Accuracy.cells
  in
  write_lines (ref_file dir) lines

(* Operations that disagree with the reference, matched by position;
   a missing or extra line fails too. *)
let count_failed ~expected ~actual =
  let rec go acc = function
    | [], [] -> acc
    | e :: es, a :: as_ -> go (if String.equal e a then acc else acc + 1) (es, as_)
    | rest, [] | [], rest -> acc + List.length rest
  in
  go 0 (expected, actual)

(* --- JSON out --------------------------------------------------------- *)

type value = Int of int | Float of float | Str of string

let print_json fields =
  let value = function
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%.17g" f
    | Str s -> Printf.sprintf "%S" s
  in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) fields)
    ^ "}")

let env_fields () =
  [
    ("domains_available", Int (Domain.recommended_domain_count ()));
    ("ocaml_version", Str Sys.ocaml_version);
    ("shards", Int shards);
    ("jobs", Int jobs);
  ]

(* Whole-process GC figures.  Read after every pool domain has been
   joined, so the workers' allocation is folded in. *)
let gc_fields ~events (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ( "gc.minor_words_per_event",
      Float ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int events) );
    ("gc.major_collections", Int (g1.Gc.major_collections - g0.Gc.major_collections));
  ]

(* --- traced layer wrappers ------------------------------------------- *)

type producer = {
  mutable read_ns : int;  (** inside [src_next]: Trace_io decode *)
  mutable items_read : int;
  mutable pull_ns : int;  (** inside the merged stream, reads included *)
  mutable gap_ns : int;  (** between pulls: routing and queue pushes *)
  mutable pulls : int;
  mutable last_ns : int;
  mutable minor0 : float;
  mutable minor1 : float;
}

let timed_source p (s : Ingest.source) =
  {
    s with
    Ingest.src_next =
      (fun () ->
        let t0 = now_ns () in
        let r = s.Ingest.src_next () in
        p.read_ns <- p.read_ns + now_ns () - t0;
        if Option.is_some r then p.items_read <- p.items_read + 1;
        r);
  }

(* Runs on the producer domain, so [Gc.minor_words] there counts that
   domain's allocation alone. *)
let timed_stream p (stream : Engine.stream) : Engine.stream =
 fun () ->
  let t0 = now_ns () in
  if p.pulls = 0 then p.minor0 <- Gc.minor_words ()
  else p.gap_ns <- p.gap_ns + t0 - p.last_ns;
  let r = stream () in
  let t1 = now_ns () in
  p.pull_ns <- p.pull_ns + t1 - t0;
  p.last_ns <- t1;
  p.pulls <- p.pulls + 1;
  if Option.is_none r then p.minor1 <- Gc.minor_words ();
  r

type store_acc = { mutable busy_ns : int; mutable calls : int }

let timed_store acc (s : Store.t) =
  let timed f =
    let t0 = now_ns () in
    let r = f () in
    acc.busy_ns <- acc.busy_ns + now_ns () - t0;
    acc.calls <- acc.calls + 1;
    r
  in
  {
    s with
    Store.add = (fun ~pid r -> timed (fun () -> s.Store.add ~pid r));
    remove = (fun ~pid r -> timed (fun () -> s.Store.remove ~pid r));
    overlaps = (fun ~pid r -> timed (fun () -> s.Store.overlaps ~pid r));
    ranges = (fun ~pid -> timed (fun () -> s.Store.ranges ~pid));
    release_pid = (fun ~pid -> timed (fun () -> s.Store.release_pid ~pid));
  }

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Tracker, store and provenance figures from isolated in-memory
   replays of [recordings] (a sequence, so serve loads one trace at a
   time) under [policies]: one pass as configured, one through a timed
   store, and (with origins) one without the sidecar. *)
let replay_fields ~prov recordings policies =
  let replay_ns = ref 0 and plain_ns = ref 0 in
  let events = ref 0 and lookups = ref 0 and taints = ref 0 and untaints = ref 0 in
  let max_bytes = ref 0 and max_ranges = ref 0 in
  let acc = { busy_ns = 0; calls = 0 } in
  List.iter
    (fun policy ->
      Seq.iter
        (fun r ->
          let rp, ns = time_ns (fun () -> Recorded.replay ~policy ~with_origins:prov r) in
          replay_ns := !replay_ns + ns;
          if prov then
            plain_ns := !plain_ns + snd (time_ns (fun () -> Recorded.replay ~policy r));
          let s = rp.Recorded.stats in
          events := !events + s.Tracker.events;
          lookups := !lookups + s.Tracker.lookups;
          taints := !taints + s.Tracker.taint_ops;
          untaints := !untaints + s.Tracker.untaint_ops;
          max_bytes := max !max_bytes s.Tracker.max_tainted_bytes;
          max_ranges := max !max_ranges s.Tracker.max_ranges;
          ignore
            (Recorded.replay ~store:(timed_store acc (Store.create ())) ~policy r))
        recordings)
    policies;
  ( secs !replay_ns,
    [
      ("tracker.replay_s", Float (secs !replay_ns));
      ("tracker.events", Int !events);
      ("tracker.lookups", Int !lookups);
      ("tracker.taint_ops", Int !taints);
      ("tracker.untaint_ops", Int !untaints);
      ("store.busy_s", Float (secs acc.busy_ns));
      ("store.calls", Int acc.calls);
      ("store.max_tainted_bytes", Int !max_bytes);
      ("store.max_ranges", Int !max_ranges);
      ("provenance.extra_s", Float (if prov then secs (!replay_ns - !plain_ns) else 0.));
    ] )

(* Layers a workload does not reach report zero, so every traced run
   carries the same metric names. *)
let zero_fields names = List.map (fun n -> (n, Int 0)) names

(* --- serve ------------------------------------------------------------ *)

let serve_results ~dir eng sources =
  let st = Engine.stats eng in
  let actual =
    List.mapi
      (fun i (s : Ingest.source) ->
        match Engine.snapshot_tenant eng ~pid:s.Ingest.src_pid with
        | None -> Printf.sprintf "tenant %d missing" i
        | Some ts ->
            tenant_line i ts.Engine.ts_name
              (List.map
                 (fun (v : Engine.verdict) ->
                   (v.Engine.v_kind, v.Engine.v_flagged, v.Engine.v_origins))
                 ts.Engine.ts_verdicts)
              ts.Engine.ts_stats)
      sources
  in
  let expected = read_lines (ref_file dir) in
  (* With a single shard every tenant shares the one queue, so any
     dropped batch may have cost any tenant its items. *)
  let failed =
    if st.Engine.st_dropped > 0 then List.length sources
    else count_failed ~expected ~actual
  in
  (st, failed)

let serve_measure workload ~dir ~trace =
  let prov = with_origins workload in
  let files = trace_files dir in
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let p =
    {
      read_ns = 0;
      items_read = 0;
      pull_ns = 0;
      gap_ns = 0;
      pulls = 0;
      last_ns = 0;
      minor0 = 0.;
      minor1 = 0.;
    }
  in
  let (setup_ns, run_ns, st, failed) =
    Engine.with_engine ~shards ~with_origins:prov (fun eng ->
        let sources =
          List.mapi (fun i f -> Ingest.of_file ~pid:(Ingest.tenant_pid i) f) files
        in
        let sources = if trace then List.map (timed_source p) sources else sources in
        List.iter
          (fun (s : Ingest.source) ->
            Engine.register_tenant eng ~pid:s.Ingest.src_pid ~name:s.Ingest.src_name ())
          sources;
        let t1 = now_ns () in
        (if trace then
           (* [Ingest.run]'s body, with the merged stream timed. *)
           Fun.protect
             ~finally:(fun () -> List.iter Ingest.close sources)
             (fun () -> Engine.run eng (timed_stream p (Ingest.merge sources)))
         else Ingest.run eng sources);
        let t2 = now_ns () in
        let st, failed = serve_results ~dir eng sources in
        (t1 - t0, t2 - t1, st, failed))
  in
  let g1 = Gc.quick_stat () in
  let events = st.Engine.st_events in
  let common =
    env_fields ()
    @ [
        ("attempted", Int (List.length files));
        ("failed", Int failed);
        ("dropped", Int st.Engine.st_dropped);
        ("events", Int events);
        ("setup_s", Float (secs setup_ns));
        ("run_s", Float (secs run_ns));
      ]
    @ gc_fields ~events g0 g1
  in
  if not trace then print_json common
  else begin
    let run_s = secs run_ns in
    let read_s = secs p.read_ns in
    let merge_self_s = secs (p.pull_ns - p.read_ns) in
    let wait_s = secs p.gap_ns in
    let items = p.pulls - 1 in
    let bytes = List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 files in
    let shard = List.hd st.Engine.st_shards in
    let replay_s, replays =
      replay_fields ~prov (Seq.map Trace_io.load (List.to_seq files)) [ policy ]
    in
    print_json
      (common
      @ [
          ("trace_io.read_s", Float read_s);
          ("trace_io.items", Int p.items_read);
          ("trace_io.bytes_read", Int bytes);
          ("ingest.merge_self_s", Float merge_self_s);
          ( "ingest.alloc_words_per_item",
            Float ((p.minor1 -. p.minor0) /. float_of_int items) );
          ("engine.run_s", Float run_s);
          ("engine.producer_wait_s", Float wait_s);
          ("engine.batches", Int st.Engine.st_batches);
          ("engine.max_queue_depth", Int shard.Engine.ss_max_queue_depth);
          ("engine.dropped", Int st.Engine.st_dropped);
          ("engine.overhead_x", Float (run_s /. replay_s));
          ( "trace.producer_sum_error_pct",
            Float (100. *. Float.abs (read_s +. merge_self_s +. wait_s -. run_s) /. run_s) );
        ]
      @ replays
      @ zero_fields
          [ "record.s"; "record.events"; "pool.idle_s"; "replay.cell_s_p50"; "replay.cell_s_max" ])
  end

(* --- sweep ------------------------------------------------------------ *)

let sweep_measure ~dir ~trace =
  let apps = apps dir in
  let expected = read_lines (ref_file dir) in
  let trace_events =
    match expected with
    | e :: _ -> Scanf.sscanf e "events %d" Fun.id
    | [] -> failwith "perfbench: empty sweep reference"
  in
  (* Per-domain end of the last finished cell; [on_cell] runs on the
     worker that replayed the cell, under the sweep's progress lock. *)
  let rec_end = ref 0 in
  let last = Hashtbl.create 4 in
  let cells = ref [] in
  let progress done_ total = if done_ = total then rec_end := now_ns () in
  let on_cell _ _ =
    if trace then begin
      let t = now_ns () in
      let d = (Domain.self () :> int) in
      let prev = Option.value (Hashtbl.find_opt last d) ~default:!rec_end in
      cells := (t - prev) :: !cells;
      Hashtbl.replace last d t
    end
  in
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let sweep = Accuracy.sweep ~jobs ~progress ~on_cell apps in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  let n_cells = List.length sweep.Accuracy.cells in
  let failed =
    count_failed ~expected:(List.tl expected)
      ~actual:(List.map cell_line sweep.Accuracy.cells)
  in
  let events = trace_events * n_cells in
  let grid_ns = t1 - !rec_end in
  let common =
    env_fields ()
    @ [
        ("attempted", Int n_cells);
        ("failed", Int failed);
        ("dropped", Int 0);
        ("events", Int events);
        ("setup_s", Float (secs (!rec_end - t0)));
        ("run_s", Float (secs grid_ns));
      ]
    @ gc_fields ~events g0 g1
  in
  if not trace then print_json common
  else begin
    let cell_ns = Array.of_list !cells in
    Array.sort compare cell_ns;
    let busy_ns = Array.fold_left ( + ) 0 cell_ns in
    let recordings, record_ns =
      time_ns (fun () -> List.map Recorded.record apps)
    in
    let record_events =
      List.fold_left
        (fun acc r -> acc + Pift_trace.Trace.length r.Recorded.trace)
        0 recordings
    in
    (* Tracker and store figures come from the NT = 3 column, NI = 1..20,
       replayed here: it spans the default cell and the explosion
       cells. *)
    let column = List.map (fun ni -> Policy.make ~ni ~nt:3 ()) Accuracy.default_nis in
    let _, replays = replay_fields ~prov:false (List.to_seq recordings) column in
    print_json
      (common
      @ [
          ("record.s", Float (secs record_ns));
          ("record.events", Int record_events);
          ("pool.idle_s", Float (secs ((jobs * grid_ns) - busy_ns)));
          ("replay.cell_s_p50", Float (secs cell_ns.(Array.length cell_ns / 2)));
          ("replay.cell_s_max", Float (secs cell_ns.(Array.length cell_ns - 1)));
        ]
      @ replays
      @ zero_fields
          [
            "trace_io.read_s";
            "trace_io.items";
            "trace_io.bytes_read";
            "ingest.merge_self_s";
            "ingest.alloc_words_per_item";
            "engine.run_s";
            "engine.producer_wait_s";
            "engine.batches";
            "engine.max_queue_depth";
            "engine.dropped";
            "engine.overhead_x";
            "trace.producer_sum_error_pct";
          ])
  end

(* --- command line ------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with
    | Some v -> v
    | None -> failwith ("perfbench: missing " ^ name)
  in
  let workload () = workload_of_string (req "--workload") in
  let dir () = req "--dir" in
  match List.tl args with
  | "gen" :: _ -> gen (workload ()) ~seed:(int_of_string (req "--seed")) ~dir:(dir ())
  | "ref" :: _ -> reference (workload ()) ~dir:(dir ())
  | "measure" :: _ -> (
      let trace = List.mem "--trace" args in
      match workload () with
      | Sweep_grid -> sweep_measure ~dir:(dir ()) ~trace
      | (Serve_wide | Serve_deep) as w -> serve_measure w ~dir:(dir ()) ~trace)
  | _ ->
      prerr_endline
        "usage: perfbench (gen|ref|measure) --workload W --dir D [--seed N] [--trace]";
      exit 2
