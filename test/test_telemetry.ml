(* Tests for the continuous-telemetry layer: snapshot rings and their
   cadence, the profile fold of flight rings and the trace report's
   walk of the same spans, the report --diff comparison engine, the
   live progress view's modes, and the guarantee that none of it
   perturbs replay results. *)

module Telemetry = Pift_obs.Telemetry
module Profile = Pift_obs.Profile
module Flight = Pift_obs.Flight
module Chrome = Pift_obs.Chrome
module Diff = Pift_obs.Diff
module Progress = Pift_obs.Progress
module Json = Pift_obs.Json
module Policy = Pift_core.Policy
module Recorded = Pift_eval.Recorded

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- telemetry ring ------------------------------------------------------ *)

(* The newest snapshot's values; [] before the first snapshot. *)
let latest t =
  match List.rev (Telemetry.snapshots t) with
  | sn :: _ -> sn.Telemetry.sn_values
  | [] -> []

let test_cadence () =
  let t = Telemetry.create ~every:10 () in
  let live = ref 0. in
  Telemetry.set_source t ~name:"x" (fun () -> !live);
  for i = 1 to 35 do
    live := float_of_int i;
    Telemetry.bump t
  done;
  checki "snapshots on the every-N cadence" 3 (Telemetry.taken t);
  checki "nothing dropped" 0 (Telemetry.dropped t);
  checkf "latest reads the live source" 30. (List.assoc "x" (latest t));
  Telemetry.sample_now t;
  checki "sample_now takes one more" 4 (Telemetry.taken t);
  checkf "final reading" 35. (List.assoc "x" (latest t));
  (match List.rev (Telemetry.snapshots t) with
  | last :: _ -> checki "events counted" 35 last.Telemetry.sn_events
  | [] -> Alcotest.fail "no snapshots");
  (match Telemetry.snapshots t with
  | first :: _ ->
      checki "sequence starts at zero" 0 first.Telemetry.sn_seq;
      checki "first snapshot at the tenth event" 10 first.Telemetry.sn_events
  | [] -> Alcotest.fail "no snapshots")

let test_source_replacement () =
  (* A sweep rebinds "tainted_bytes" per grid cell on the same per-slot
     instance; the snapshot must read the newest closure, once. *)
  let t = Telemetry.create ~every:0 () in
  Telemetry.set_source t ~name:"v" (fun () -> 1.);
  Telemetry.sample_now t;
  Telemetry.set_source t ~name:"v" (fun () -> 2.);
  Telemetry.sample_now t;
  (match Telemetry.snapshots t with
  | [ a; b ] ->
      checkf "first binding" 1. (List.assoc "v" a.Telemetry.sn_values);
      checkf "rebound, not accumulated" 2. (List.assoc "v" b.Telemetry.sn_values);
      checki "one entry per name" 1 (List.length b.Telemetry.sn_values)
  | l -> Alcotest.failf "expected 2 snapshots, got %d" (List.length l))

let test_ring_overflow () =
  let t = Telemetry.create ~capacity:4 ~every:1 () in
  Telemetry.set_source t ~name:"n" (fun () -> 0.);
  for _ = 1 to 10 do
    Telemetry.bump t
  done;
  checki "all snapshots counted" 10 (Telemetry.taken t);
  checki "ring keeps only capacity" 4 (Telemetry.length t);
  checki "overflow surfaced as dropped" 6 (Telemetry.dropped t);
  (match Telemetry.snapshots t with
  | first :: _ -> checki "survivors are the newest" 6 first.Telemetry.sn_seq
  | [] -> Alcotest.fail "no snapshots")

let test_capacity_zero_off () =
  let t = Telemetry.create ~capacity:0 ~every:1 () in
  Telemetry.set_source t ~name:"n" (fun () -> 0.);
  for _ = 1 to 5 do
    Telemetry.bump t
  done;
  Telemetry.sample_now t;
  checki "capacity 0 records nothing" 0 (Telemetry.taken t);
  checki "and keeps nothing" 0 (Telemetry.length t);
  checkb "no snapshots" true (Telemetry.snapshots t = [])

let test_merged_and_jsonl () =
  let slots = [| Telemetry.create ~every:0 (); Telemetry.create ~every:0 () |] in
  Array.iteri
    (fun i t ->
      Telemetry.set_source t ~name:"v" (fun () -> float_of_int i))
    slots;
  Telemetry.sample_now slots.(0);
  Telemetry.sample_now slots.(1);
  Telemetry.sample_now slots.(0);
  let merged = Telemetry.merged slots in
  checki "merged keeps every snapshot" 3 (List.length merged);
  checkb "timestamps non-decreasing" true
    (let ts = List.map (fun (_, s) -> s.Telemetry.sn_ts) merged in
     List.sort compare ts = ts);
  (* JSONL round trip through the report decoder *)
  let path = Tmp_file.path "pift_telemetry" ".jsonl" in
  let oc = open_out path in
  Telemetry.write_jsonl oc ~run:"unit" slots;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := Json.of_string l :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let f = Telemetry.of_json_lines (List.rev !lines) in
  checks "run name survives" "unit" f.Telemetry.f_run;
  checki "slot count survives" 2 f.Telemetry.f_slots;
  checki "taken survives" 3 f.Telemetry.f_taken;
  checki "dropped survives" 0 f.Telemetry.f_dropped;
  (match f.Telemetry.f_series with
  | [ s ] ->
      checks "series named by source" "v" s.Telemetry.se_name;
      checki "all points folded in" 3 (List.length s.Telemetry.se_points)
  | l -> Alcotest.failf "expected 1 series, got %d" (List.length l));
  (* rendering is total on well-formed input... *)
  let rendered =
    Format.asprintf "%a"
      (fun ppf () -> Telemetry.render_json_lines (List.rev !lines) ppf ())
      ()
  in
  checkb "render mentions the source" true (contains rendered "v");
  (* ...and loud on malformed lines *)
  checkb "malformed line raises" true
    (try
       ignore
         (Telemetry.of_json_lines [ Json.Obj [ ("pift_telemetry", Json.Int 3) ] ]);
       false
     with Telemetry.Malformed _ -> true)

let test_sparkline () =
  checks "empty input" "" (Telemetry.sparkline []);
  let s = Telemetry.sparkline [ 0.; 1.; 2.; 3. ] in
  checkb "monotone input is non-empty" true (String.length s > 0);
  (* downsampling caps the cell count (cells are 3-byte UTF-8 blocks) *)
  let wide = Telemetry.sparkline ~width:8 (List.init 100 float_of_int) in
  checkb "downsampled to width" true (String.length wide <= 8 * 3)

(* --- profiler ------------------------------------------------------------ *)

let spin () =
  let x = ref 0 in
  for i = 1 to 20_000 do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

(* Brackets [f] on [ring] the way the CLI brackets its phases: the End
   goes in on the way out, exceptions included. *)
let span ring name f =
  Flight.begin_ ring name;
  Fun.protect ~finally:(fun () -> Flight.end_ ring name) f

let test_profile_nesting () =
  let ring = Flight.create () in
  Flight.begin_ ring "replay";
  spin ();
  Flight.begin_ ring "tracker";
  spin ();
  Flight.end_ ring "tracker";
  spin ();
  Flight.end_ ring "replay";
  let folded = Profile.fold [| ring |] in
  let weight path = List.assoc path folded in
  checkb "self times are positive" true
    (weight "replay" > 0. && weight "replay;tracker" > 0.);
  checki "two regions" 2 (List.length folded);
  (match Flight.events ring with
  | first :: _ as evs ->
      let last = List.nth evs (List.length evs - 1) in
      checkf "self times add up to the outer span"
        (last.Flight.ts -. first.Flight.ts)
        (weight "replay" +. weight "replay;tracker")
  | [] -> Alcotest.fail "empty ring");
  (* an End with nothing open is dropped, not an exception *)
  Flight.end_ ring "replay";
  checki "unbalanced end ignored" 2 (List.length (Profile.fold [| ring |]));
  checki "an empty ring folds to nothing" 0
    (List.length (Profile.fold [| Flight.create () |]))

let test_profile_span () =
  let off = Flight.create ~capacity:0 () in
  checki "span on a disabled ring is just f" 7 (span off "x" (fun () -> 7));
  checki "a disabled ring folds to nothing" 0
    (List.length (Profile.fold [| off |]));
  let ring = Flight.create () in
  checkb "span closes on exceptions" true
    (try span ring "boom" (fun () -> failwith "boom") with Failure _ -> true);
  checkb "raising region still attributed" true
    (List.mem_assoc "boom" (Profile.fold [| ring |]));
  (* and the stack is balanced afterwards: a sibling lands at top level *)
  span ring "after" (fun () -> ());
  checkb "sibling not nested under the raiser" true
    (List.mem_assoc "after" (Profile.fold [| ring |]))

let test_profile_merge () =
  let a = Flight.create () and b = Flight.create () in
  span a "chunk" spin;
  span b "chunk" spin;
  span b "io" spin;
  let merged = Profile.fold [| a; b |] in
  (match merged with
  | (p0, w) :: _ ->
      checks "slot 0 order first" "chunk" p0;
      checkf "weights summed"
        (List.assoc "chunk" (Profile.fold [| a |])
        +. List.assoc "chunk" (Profile.fold [| b |]))
        w
  | [] -> Alcotest.fail "empty merge");
  checkb "later slot's new path appended" true (List.mem_assoc "io" merged);
  (* names are grouped into phases, as the trace summary groups them *)
  let c = Flight.create () in
  span c "cell(1,2)" (fun () -> span c "record:A" spin);
  span c "cell(3,4)" spin;
  Alcotest.(check (list string))
    "phases, not instances" [ "cell;record"; "cell" ]
    (List.map fst (Profile.fold [| c |]))

(* The rings and the trace file they export hold the same spans: the
   report's decode of [Chrome.json], walked by [Profile.spans], gives
   the fold rows [Profile.fold] gives over the rings, and the same
   per-phase totals, wrapped rings included. *)
let test_profile_agrees_with_trace () =
  let full = Flight.create () in
  span full "chunk" (fun () ->
      span full "record:A" spin;
      span full "cell(1,1)" (fun () ->
          spin ();
          span full "cell(2,1)" spin));
  Flight.instant full "source";
  span full "chunk" (fun () -> span full "cell(1,2)" spin);
  Flight.sample full "max_ranges" 3.;
  (* Nine events into five slots: the first chunk's Begin is lost (its
     End is dropped) and the second chunk is still open at the end. *)
  let wrapped = Flight.create ~capacity:5 () in
  Flight.begin_ wrapped "chunk";
  span wrapped "cell(1,1)" spin;
  span wrapped "cell(2,1)" spin;
  Flight.end_ wrapped "chunk";
  Flight.begin_ wrapped "chunk";
  spin ();
  span wrapped "record:B" spin;
  checki "ring wrapped" 4 (Flight.dropped wrapped);
  Alcotest.(check (list string))
    "lost Begin dropped, open span closed" [ "chunk;record"; "chunk" ]
    (List.map fst (Profile.fold [| wrapped |]));
  let rings = [| full; wrapped |] in
  let live =
    List.concat_map
      (fun r -> Profile.spans (fun f -> Flight.iter_balanced f r))
      (Array.to_list rings)
  in
  let decoded =
    match
      Chrome.validate (Json.of_string (Json.to_string (Chrome.json rings)))
    with
    | Error msg -> Alcotest.failf "exported trace invalid: %s" msg
    | Ok c ->
        Alcotest.(check (list int))
          "one track per ring" [ 0; 1 ]
          (List.map fst c.Chrome.c_timeline);
        List.concat_map
          (fun (_, events) -> Profile.spans (fun f -> List.iter f events))
          c.Chrome.c_timeline
  in
  let close = Alcotest.(check (float 1e-9)) in
  let folded = Profile.fold rings and walked = Profile.rows decoded in
  Alcotest.(check (list string))
    "same stacks, same order" (List.map fst folded) (List.map fst walked);
  List.iter2 (fun (path, a) (_, b) -> close path a b) folded walked;
  let phase_totals spans =
    List.map
      (fun phase ->
        List.fold_left
          (fun acc (sp : Profile.span) ->
            if Profile.phase_of sp.Profile.sp_name = phase then
              acc +. sp.Profile.sp_elapsed
            else acc)
          0. spans)
      [ "cell"; "chunk"; "record" ]
  in
  List.iter2 (close "phase total") (phase_totals live) (phase_totals decoded);
  checkb "every phase spanned" true
    (List.for_all (fun t -> t > 0.) (phase_totals decoded))

(* The report's self-time section over a hand-made trace with exact
   timestamps: per-subsystem shares and their order. *)
let test_profile_breakdown () =
  let ev ph name ts =
    Json.Obj
      [
        ("name", Json.String name); ("ph", Json.String ph); ("pid", Json.Int 1);
        ("tid", Json.Int 0); ("ts", Json.Float ts);
      ]
  in
  (* self µs: store 100, tracker 300, replay 400, pool 0, trace_io 200 *)
  let trace =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              ev "B" "pool" 0.; ev "B" "replay" 0.; ev "B" "tracker" 0.;
              ev "B" "store" 0.; ev "E" "store" 100.; ev "E" "tracker" 400.;
              ev "E" "replay" 800.; ev "E" "pool" 800.;
              ev "B" "trace_io" 800.; ev "E" "trace_io" 1000.;
            ] );
      ]
  in
  let text =
    Format.asprintf "%a" (fun ppf () -> Chrome.summarize trace ppf ()) ()
  in
  let lines = String.split_on_char '\n' text in
  let rec after_header = function
    | l :: rest when String.starts_with ~prefix:"subsystem" l -> rest
    | _ :: rest -> after_header rest
    | [] -> Alcotest.fail "no subsystem table"
  in
  let rec table = function
    | l :: rest when l <> "" -> l :: table rest
    | _ -> []
  in
  let shares =
    List.map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | [ name; _; share ] -> (name, share)
        | _ -> Alcotest.failf "subsystem row %S" l)
      (table (after_header lines))
  in
  Alcotest.(check (list (pair string string)))
    "shares, largest first"
    [ ("replay", "40.0%"); ("tracker", "30.0%"); ("trace_io", "20.0%");
      ("store", "10.0%"); ("pool", "0.0%") ]
    shares;
  checkb "hottest stack listed" true
    (contains text "pool;replay;tracker;store")

(* --- report --diff ------------------------------------------------------- *)

let obj fields = Json.Obj fields

let test_diff_identical () =
  let j = obj [ ("flat_replay_seconds", Json.Float 0.5);
                ("events_per_sec", Json.Float 1e6) ] in
  let r = Diff.compare_json ~baseline:j ~current:j () in
  checki "no regressions" 0 r.Diff.r_regressions;
  checki "both fields compared" 2 r.Diff.r_compared;
  checkb "no changes listed" true (r.Diff.r_changes = [])

let test_diff_directions () =
  (* seconds: higher is worse *)
  let base = obj [ ("flat_replay_seconds", Json.Float 1.0) ] in
  let cur = obj [ ("flat_replay_seconds", Json.Float 3.0) ] in
  let r = Diff.compare_json ~max_ratio:2.0 ~baseline:base ~current:cur () in
  checki "3x slower regresses at 2.0" 1 r.Diff.r_regressions;
  (match r.Diff.r_changes with
  | [ c ] ->
      checkb "direction inferred from path" true
        (c.Diff.c_direction = Diff.Higher_worse);
      checkf "severity is the worse-direction ratio" 3.0 c.Diff.c_severity
  | _ -> Alcotest.fail "expected one change");
  (* getting faster never regresses *)
  let r = Diff.compare_json ~max_ratio:2.0 ~baseline:cur ~current:base () in
  checki "3x faster is fine" 0 r.Diff.r_regressions;
  (* throughput: lower is worse *)
  let base = obj [ ("replay_events_per_sec", Json.Float 100. ) ] in
  let cur = obj [ ("replay_events_per_sec", Json.Float 40. ) ] in
  let r = Diff.compare_json ~max_ratio:2.0 ~baseline:base ~current:cur () in
  checki "2.5x less throughput regresses" 1 r.Diff.r_regressions;
  (* neutral fields never gate *)
  let base = obj [ ("rounds", Json.Int 5) ] in
  let cur = obj [ ("rounds", Json.Int 50) ] in
  let r = Diff.compare_json ~baseline:base ~current:cur () in
  checki "neutral change informs, not gates" 0 r.Diff.r_regressions;
  checki "but is still reported" 1 (List.length r.Diff.r_changes)

let test_diff_min_abs_floor () =
  let base = obj [ ("decode_seconds", Json.Float 0.001) ] in
  let cur = obj [ ("decode_seconds", Json.Float 0.003) ] in
  let loud = Diff.compare_json ~max_ratio:1.25 ~baseline:base ~current:cur () in
  checki "3x on µs noise regresses without a floor" 1 loud.Diff.r_regressions;
  let floored =
    Diff.compare_json ~max_ratio:1.25 ~min_abs:0.05 ~baseline:base ~current:cur ()
  in
  checki "min_abs floors sub-threshold deltas" 0 floored.Diff.r_regressions

let test_diff_bool_and_structure () =
  let base = obj [ ("identical_cells", Json.Bool true) ] in
  let cur = obj [ ("identical_cells", Json.Bool false) ] in
  let r = Diff.compare_json ~baseline:base ~current:cur () in
  checkb "true->false always regresses" true (r.Diff.r_regressions >= 1);
  (* false -> true is recovery, not regression *)
  let r = Diff.compare_json ~baseline:cur ~current:base () in
  checki "false->true is fine" 0 r.Diff.r_regressions;
  (* a field vanishing is a note, not a silent pass *)
  let base = obj [ ("a", Json.Int 1); ("b", Json.Int 2) ] in
  let cur = obj [ ("a", Json.Int 1) ] in
  let r = Diff.compare_json ~baseline:base ~current:cur () in
  checkb "missing field noted" true (r.Diff.r_notes <> [])

let test_diff_named_list_pairing () =
  let metric name v =
    obj [ ("name", Json.String name); ("value", Json.Int v) ]
  in
  let base = obj [ ("metrics", Json.List [ metric "a" 1; metric "b" 2 ]) ] in
  let cur = obj [ ("metrics", Json.List [ metric "b" 2; metric "a" 1 ]) ] in
  let r = Diff.compare_json ~baseline:base ~current:cur () in
  checki "reordered named lists pair by name" 0 r.Diff.r_regressions;
  checkb "nothing even changed" true (r.Diff.r_changes = [])

let test_diff_render () =
  let base = obj [ ("flat_replay_seconds", Json.Float 1.0) ] in
  let cur = obj [ ("flat_replay_seconds", Json.Float 3.0) ] in
  let r = Diff.compare_json ~max_ratio:2.0 ~baseline:base ~current:cur () in
  let text =
    Format.asprintf "%a"
      (fun ppf () -> Diff.render ~label_a:"old" ~label_b:"new" r ppf ())
      ()
  in
  checkb "regression rendered" true (contains text "REGRESSION");
  let ok = Diff.compare_json ~baseline:base ~current:base () in
  let text =
    Format.asprintf "%a" (fun ppf () -> Diff.render ok ppf ()) ()
  in
  checkb "clean diff says so" true (contains text "ok: no regressions")

(* --- live view ----------------------------------------------------------- *)

(* Runs [f] with stdout and stderr sent to temp files; returns what each
   received. *)
let captured f =
  let redirect fd =
    let path = Tmp_file.path "pift-view" ".txt" in
    let saved = Unix.dup fd in
    let file = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
    Unix.dup2 file fd;
    Unix.close file;
    (path, saved)
  in
  flush stdout;
  flush stderr;
  let out, saved_out = redirect Unix.stdout in
  let err, saved_err = redirect Unix.stderr in
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      flush stderr;
      Unix.dup2 saved_out Unix.stdout;
      Unix.dup2 saved_err Unix.stderr;
      Unix.close saved_out;
      Unix.close saved_err)
    f;
  let read path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  (read out, read err)

let test_disabled_is_silent () =
  let out, err =
    captured (fun () ->
        let p = Progress.create ~enabled:false ~label:"unit" ~total:0 () in
        Progress.set_total p 10;
        for _ = 1 to 10 do
          Progress.step p
        done;
        Progress.finish p;
        Progress.finish p (* idempotent *))
  in
  checks "stdout" "" out;
  checks "stderr" "" err

let test_progress_off_tty () =
  (* off a terminal, default-enabled progress resolves to off *)
  let out, err =
    captured (fun () ->
        let p = Progress.create ~label:"unit" ~total:5 () in
        for _ = 1 to 5 do
          Progress.step p
        done;
        Progress.finish p;
        let q = Progress.create ~enabled:false ~label:"unit" ~total:3 () in
        Progress.step q;
        Progress.finish q)
  in
  checks "stdout" "" out;
  checks "stderr" "" err

(* Forced on off a terminal, the view logs a line every 25 steps and at
   the end, and never paints a frame. *)
let test_progress_log_mode () =
  let out, err =
    captured (fun () ->
        let p = Progress.create ~enabled:true ~label:"unit" ~total:60 () in
        for _ = 1 to 60 do
          Progress.step p
        done;
        Progress.finish p)
  in
  checks "stdout" "" out;
  let counts =
    List.map
      (fun line ->
        match String.split_on_char ' ' line with
        | label :: count :: _ -> label ^ " " ^ count
        | _ -> line)
      (List.filter (( <> ) "") (String.split_on_char '\n' err))
  in
  Alcotest.(check (list string))
    "lines at 25, 50, 60"
    [ "unit: 25/60"; "unit: 50/60"; "unit: 60/60" ]
    counts

(* --- replay results must not move ---------------------------------------- *)

let test_replay_unperturbed () =
  let app = Option.get (Pift_workloads.Droidbench.find "StringConcat1") in
  let recorded = Recorded.record app in
  let plain = Recorded.replay ~policy:Policy.default recorded in
  let telemetry = Telemetry.create ~every:1 () in
  let ring = Flight.create () in
  let traced =
    span ring "record" (fun () -> Recorded.record ~flight:ring app)
  in
  let observed =
    span ring "replay" (fun () ->
        Recorded.replay ~telemetry ~policy:Policy.default traced)
  in
  checkb "stats identical" true (plain.Recorded.stats = observed.Recorded.stats);
  checkb "verdicts identical" true
    (plain.Recorded.verdicts = observed.Recorded.verdicts);
  checkb "telemetry actually sampled" true (Telemetry.taken telemetry > 0);
  checkb "tracker sources registered" true
    (List.mem_assoc "tainted_bytes" (latest telemetry));
  checkb "window_used source registered" true
    (List.mem_assoc "window_used" (latest telemetry));
  Alcotest.(check (list string))
    "the replay's ring spans fold" [ "record;vm-run"; "record"; "replay" ]
    (List.map fst (Profile.fold [| ring |]))

let () =
  Alcotest.run "pift_telemetry"
    [
      ( "telemetry",
        [
          Alcotest.test_case "cadence" `Quick test_cadence;
          Alcotest.test_case "source replacement" `Quick test_source_replacement;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "capacity zero off" `Quick test_capacity_zero_off;
          Alcotest.test_case "merged + jsonl round trip" `Quick
            test_merged_and_jsonl;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nesting self time" `Quick test_profile_nesting;
          Alcotest.test_case "span gating" `Quick test_profile_span;
          Alcotest.test_case "merge + phase grouping" `Quick
            test_profile_merge;
          Alcotest.test_case "breakdown" `Quick test_profile_breakdown;
          Alcotest.test_case "fold agrees with the trace" `Quick
            test_profile_agrees_with_trace;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "directions" `Quick test_diff_directions;
          Alcotest.test_case "min_abs floor" `Quick test_diff_min_abs_floor;
          Alcotest.test_case "bools and structure" `Quick
            test_diff_bool_and_structure;
          Alcotest.test_case "named list pairing" `Quick
            test_diff_named_list_pairing;
          Alcotest.test_case "render" `Quick test_diff_render;
        ] );
      ( "live view",
        [
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "progress off tty" `Quick test_progress_off_tty;
          Alcotest.test_case "progress log mode" `Quick test_progress_log_mode;
        ] );
      ( "replay",
        [
          Alcotest.test_case "results unperturbed" `Quick
            test_replay_unperturbed;
        ] );
    ]
