(* Tests for the workload suites: inventory counts, ground-truth labels
   (validated against the full-DIFT oracle), and the synthetic corpora. *)

module App = Pift_workloads.App
module Droidbench = Pift_workloads.Droidbench
module Malware = Pift_workloads.Malware
module Corpus = Pift_workloads.Corpus
module Dex_stats = Pift_dalvik.Dex_stats
module Recorded = Pift_eval.Recorded

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_inventory () =
  checki "57 apps" 57 (List.length Droidbench.all);
  checki "41 leaky" 41 (List.length Droidbench.leaky);
  checki "16 benign" 16 (List.length Droidbench.benign);
  checki "48 in the Fig.11 subset" 48 (List.length Droidbench.subset48);
  checki "subset leaky" 32
    (List.length
       (List.filter (fun (a : App.t) -> a.App.leaky) Droidbench.subset48));
  checki "7 malware" 7 (List.length Malware.all);
  checkb "malware all leaky" true
    (List.for_all (fun (a : App.t) -> a.App.leaky) Malware.all)

let test_unique_names () =
  let names =
    List.map
      (fun (a : App.t) -> a.App.name)
      (Droidbench.all @ Malware.all)
  in
  checki "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  checkb "find hit" true (Droidbench.find "StringConcat1" <> None);
  checkb "find miss" true (Droidbench.find "Nonexistent" = None)

(* Every app must build and execute; the full-DIFT oracle must agree with
   the ground-truth label — except for the implicit-flow cases, which by
   definition leak without a data flow. *)
let test_ground_truth () =
  List.iter
    (fun (a : App.t) ->
      let recorded = Recorded.record a in
      checkb (a.App.name ^ " produced a trace") true
        (Pift_trace.Trace.length recorded.Recorded.trace > 0);
      let dift = Recorded.replay_dift recorded in
      let expected =
        if String.equal a.App.category "ImplicitFlows" then false
        else a.App.leaky
      in
      checkb
        (Printf.sprintf "%s: full DIFT says %b (label %b)" a.App.name
           dift.Recorded.dift_flagged a.App.leaky)
        expected dift.Recorded.dift_flagged)
    (Droidbench.all @ Malware.all)

let test_every_leaky_app_reaches_a_sink () =
  List.iter
    (fun (a : App.t) ->
      let recorded = Recorded.record a in
      let sinks =
        Array.to_list recorded.Recorded.markers
        |> List.filter (fun (_, m) ->
               match m with
               | Recorded.Sink _ -> true
               | Recorded.Source _ -> false)
      in
      checkb (a.App.name ^ " exercises a sink") true (sinks <> []))
    Droidbench.all

let test_corpus () =
  let apps = Corpus.applications ~lines:24_000 () in
  let libs = Corpus.system_libraries ~lines:24_000 () in
  checkb "apps corpus sized" true (Dex_stats.total_bytecodes apps >= 20_000);
  checkb "libs corpus sized" true (Dex_stats.total_bytecodes libs >= 20_000);
  (* calibration: invoke-virtual must be the most frequent opcode, with a
     share near the paper's numbers *)
  let top rows = (List.hd rows : Dex_stats.row) in
  let apps_top = top (Dex_stats.rows apps) in
  Alcotest.(check string) "apps top opcode" "invoke-virtual"
    apps_top.Dex_stats.mnemonic;
  checkb "apps top share ~11%" true
    (apps_top.Dex_stats.share > 0.08 && apps_top.Dex_stats.share < 0.14);
  let libs_top = top (Dex_stats.rows libs) in
  Alcotest.(check string) "libs top opcode" "invoke-virtual"
    libs_top.Dex_stats.mnemonic;
  (* determinism *)
  let again = Corpus.applications ~lines:24_000 () in
  checki "deterministic generation"
    (Dex_stats.total_bytecodes apps)
    (Dex_stats.total_bytecodes again)

let test_extended_suite () =
  checki "24 extended apps" 24 (List.length Pift_workloads.Extended.all);
  List.iter
    (fun (a : App.t) ->
      let recorded = Recorded.record a in
      (* labels agree with the full-DIFT oracle on direct flows *)
      let dift = Recorded.replay_dift recorded in
      let dift_expected =
        (* implicit flows are invisible to exact data-flow tracking *)
        if String.equal a.App.category "ImplicitFlows" then false
        else a.App.leaky
      in
      checkb
        (a.App.name ^ ": DIFT matches label")
        dift_expected dift.Recorded.dift_flagged;
      (* PIFT is correct at the paper's operating point, except for the
         documented TruncatedClean1 overtainting false positive *)
      let pift =
        Pift_eval.Recorded.replay ~policy:Pift_core.Policy.default recorded
      in
      let expected_pift =
        a.App.leaky || String.equal a.App.name "TruncatedClean1"
      in
      checkb
        (a.App.name ^ ": PIFT as expected at (13,3)")
        expected_pift pift.Recorded.flagged)
    Pift_workloads.Extended.all;
  (* provenance on the merge app names both sources *)
  match Pift_workloads.Extended.find "TaintMerge1" with
  | None -> Alcotest.fail "TaintMerge1 missing"
  | Some a -> (
      let r = Recorded.record a in
      match
        (Recorded.replay ~with_origins:true ~policy:Pift_core.Policy.default r)
          .Recorded.origins
      with
      | [ v ] ->
          checkb "both labels" true
            (List.mem "IMEI" v.Recorded.ov_origins
            && List.mem "PhoneNumber" v.Recorded.ov_origins)
      | _ -> Alcotest.fail "expected one sink verdict")

let test_evasion_inventory () =
  checki "evasion quartet" 4 (List.length Pift_workloads.Evasion.all);
  checkb "both leaky" true
    (List.for_all (fun (a : App.t) -> a.App.leaky) Pift_workloads.Evasion.all)

let test_browser () =
  let r = Recorded.record Pift_workloads.Browser.app in
  checkb "substantial trace" true
    (Pift_trace.Trace.length r.Recorded.trace > 50_000);
  (* benign: no source registered, sinks all clean under both trackers *)
  checkb "no sources" true
    (not
       (Array.exists
          (fun (_, m) ->
            match m with Recorded.Source _ -> true | Recorded.Sink _ -> false)
          r.Recorded.markers));
  let p = Recorded.replay ~policy:Pift_core.Policy.default r in
  checkb "clean" false p.Recorded.flagged;
  (* loads dominate stores, as in the paper's profile *)
  checkb "load-heavy" true
    (Pift_trace.Trace.loads r.Recorded.trace
    > 2 * Pift_trace.Trace.stores r.Recorded.trace)

let test_lgroot_sizing () =
  let small = Malware.lgroot_sized ~rounds:1 ~payload_chars:64 in
  let r = Recorded.record small in
  checkb "small lgroot runs" true
    (Pift_trace.Trace.length r.Recorded.trace > 1000);
  checkb "sources registered" true
    (Array.exists
       (fun (_, m) ->
         match m with Recorded.Source _ -> true | Recorded.Sink _ -> false)
       r.Recorded.markers)

let () =
  Alcotest.run "pift_workloads"
    [
      ( "inventory",
        [
          Alcotest.test_case "counts" `Quick test_inventory;
          Alcotest.test_case "names" `Quick test_unique_names;
        ] );
      ( "ground truth",
        [
          Alcotest.test_case "full-DIFT oracle vs labels" `Slow
            test_ground_truth;
          Alcotest.test_case "sinks exercised" `Slow
            test_every_leaky_app_reaches_a_sink;
        ] );
      ("corpus", [ Alcotest.test_case "calibration" `Quick test_corpus ]);
      ( "extended",
        [
          Alcotest.test_case "labels & detection" `Slow test_extended_suite;
          Alcotest.test_case "evasion inventory" `Quick
            test_evasion_inventory;
        ] );
      ("malware", [ Alcotest.test_case "lgroot sizing" `Quick test_lgroot_sizing ]);
      ("browser", [ Alcotest.test_case "benign benchmark" `Quick test_browser ]);
    ]
