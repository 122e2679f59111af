(* Quickstart: build the paper's §2 example from scratch and watch PIFT
   catch it.

     String msgX = "type=sms";
     msgY = msgX + "&imei=" + telMan.getDeviceId();
     msgZ = msgY + "&dummy";
     sms.sendTextMessage(phNum, null, msgZ, ...);

   This walks through the whole public API: assemble a Dalvik-style
   program, execute it on the simulated CPU with live PIFT and full-DIFT
   trackers attached, and inspect the verdicts. *)

module B = Pift_dalvik.Bytecode
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Full_dift = Pift_baseline.Full_dift
module Manager = Pift_runtime.Manager
open Pift_workloads.Dsl

let program () =
  prog
    [
      meth ~name:"main" ~registers:8 ~ins:0
        ([ lit 0 "type=sms" ]
        @ imei 1 (* invoke getDeviceId + move-result-object *)
        @ [ lit 2 "&imei=" ]
        @ concat ~dst:3 0 2
        @ concat ~dst:4 3 1 (* msgY = "type=sms&imei=" + IMEI *)
        @ [ lit 5 "&dummy" ]
        @ concat ~dst:6 4 5 (* msgZ *)
        @ [ lit 7 "5554"; send_sms ~dest:7 ~msg:6; B.Return_void ]);
    ]

let () =
  (* Wire the machinery by hand (the Recorded module automates this). *)
  let trace = Pift_trace.Trace.create () in
  let pift = Tracker.create ~policy:Policy.default () in
  let dift = Full_dift.create () in
  let sink insn e =
    Pift_trace.Trace.sink trace insn e;
    Tracker.observe pift e;
    Full_dift.observe dift insn e
  in
  let env = Pift_runtime.Env.create ~sink () in
  (* Attach both trackers to the PIFT manager: sources taint, sinks check. *)
  Manager.add_tracker env.Pift_runtime.Env.manager ~name:"pift"
    ~taint:(Tracker.taint_source pift)
    ~check:(Tracker.is_tainted pift);
  Manager.add_tracker env.Pift_runtime.Env.manager ~name:"full-dift"
    ~taint:(Full_dift.taint_source dift)
    ~check:(Full_dift.is_tainted dift);
  let vm = Pift_dalvik.Vm.create env (program ()) in
  (match Pift_dalvik.Vm.run vm with
  | `Ok -> ()
  | `Uncaught _ -> print_endline "app crashed (uncaught exception)");
  Printf.printf "executed %d instructions (%d loads, %d stores)\n"
    (Pift_trace.Trace.length trace)
    (Pift_trace.Trace.loads trace)
    (Pift_trace.Trace.stores trace);
  List.iter
    (fun (v : Manager.verdict) ->
      Printf.printf "sink %s:\n" v.Manager.sink;
      List.iter
        (fun (tracker, tainted) ->
          Printf.printf "  %-10s %s\n" tracker
            (if tainted then "LEAK DETECTED" else "clean"))
        v.Manager.tainted)
    (Manager.verdicts env.Pift_runtime.Env.manager);
  let stats = Tracker.stats pift in
  Printf.printf
    "PIFT processed %d memory events: %d taintings, %d untaintings, peak %d \
     tainted bytes\n"
    stats.Tracker.lookups stats.Tracker.taint_ops stats.Tracker.untaint_ops
    stats.Tracker.max_tainted_bytes;
  Printf.printf
    "full DIFT needed %d per-instruction propagations for the same answer\n"
    (Full_dift.propagations dift)
