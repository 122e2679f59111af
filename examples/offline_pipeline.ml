(* The paper's offline methodology, end to end: execute an app once,
   dump its instruction trace with the source/sink markers (what gem5 +
   PIFT Native produce in §5), then re-analyse the dump under several
   configurations — including the provenance extension that names the
   leaked sources. *)

module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io
module Policy = Pift_core.Policy

let () =
  let app =
    match Pift_workloads.Droidbench.find "DeviceId1" with
    | Some a -> a
    | None -> failwith "app missing"
  in
  (* 1. execute & record *)
  let recorded = Recorded.record app in
  Printf.printf "recorded %s: %d instructions, %d markers\n"
    recorded.Recorded.name
    (Pift_trace.Trace.length recorded.Recorded.trace)
    (Array.length recorded.Recorded.markers);
  (* 2. archive the trace *)
  let path = Filename.temp_file "pift_demo" ".trace" in
  Trace_io.save recorded path;
  Printf.printf "saved to %s (%d bytes)\n" path (Unix.stat path).Unix.st_size;
  (* 3. reload and analyse offline, no re-execution *)
  let loaded = Trace_io.load path in
  List.iter
    (fun (ni, nt) ->
      let replay = Recorded.replay ~policy:(Policy.make ~ni ~nt ()) loaded in
      Printf.printf "  (NI=%2d, NT=%d): %s\n" ni nt
        (if replay.Recorded.flagged then "LEAK DETECTED" else "no leak"))
    [ (1, 1); (3, 2); (13, 3) ];
  (* 4. provenance: name the sources that reached the sink *)
  List.iter
    (fun (v : Recorded.origin_verdict) ->
      Printf.printf "  sink %s carries: %s\n" v.Recorded.ov_kind
        (if v.Recorded.ov_origins = [] then "(nothing)"
         else String.concat ", " v.Recorded.ov_origins))
    (Recorded.replay ~with_origins:true ~policy:Policy.default loaded)
      .Recorded.origins;
  Sys.remove path
