(* Extending the runtime: define a brand-new sensitive source (a contacts
   database), a new sink (file write), and a native helper, then watch
   PIFT track a leak through them — the recipe for growing the framework
   surface beyond what ships in Pift_runtime.Api. *)

module B = Pift_dalvik.Bytecode
module Env = Pift_runtime.Env
module Manager = Pift_runtime.Manager
module Jstring = Pift_runtime.Jstring
module Policy = Pift_core.Policy
module Recorded = Pift_eval.Recorded
open Pift_workloads.Dsl

(* A source: materialise the data, register its range with the manager
   under a new label, return the reference. *)
let get_contact : Env.native =
 fun env ~args:_ ~arg_addrs:_ ->
  let s = Jstring.alloc env.Env.heap "Ada Lovelace,+44 20 7946 0958" in
  (match Jstring.data_range env.Env.heap s with
  | Some r ->
      Manager.register_source env.Env.manager ~pid:(Env.pid env)
        ~kind:"Contacts" r
  | None -> ());
  Env.set_retval_ref env s

(* A sink: hand the outgoing ranges to the manager for a taint check. *)
let file_write : Env.native =
 fun env ~args ~arg_addrs:_ ->
  let ranges =
    match Jstring.data_range env.Env.heap args.(0) with
    | Some r -> [ r ]
    | None -> []
  in
  Manager.check_sink env.Env.manager ~pid:(Env.pid env) ~kind:"file" ranges

(* An app using them, assembled with the workload DSL. *)
let contacts_backup =
  Pift_workloads.App.make ~name:"ContactsBackup" ~category:"Custom"
    ~leaky:true ~subset48:false
    ~natives:
      [ ("Contacts.get", get_contact); ("File.write", file_write) ]
    (fun () ->
      prog
        [
          meth ~name:"main" ~registers:6 ~ins:0
            ([ lit 0 "backup: " ]
            @ source_obj "Contacts.get" 1
            @ concat ~dst:2 0 1
            @ [ call "File.write" [ 2 ]; B.Return_void ]);
        ])

let () =
  let recorded = Recorded.record contacts_backup in
  let replay =
    Recorded.replay ~with_origins:true ~policy:Policy.default recorded
  in
  List.iter
    (fun (v : Recorded.verdict) ->
      Printf.printf "sink %-5s -> %s\n" v.Recorded.kind
        (if v.Recorded.flagged then "LEAK DETECTED" else "clean"))
    replay.Recorded.verdicts;
  List.iter
    (fun (v : Recorded.origin_verdict) ->
      Printf.printf "sink %-5s carries: %s\n" v.Recorded.ov_kind
        (String.concat ", " v.Recorded.ov_origins))
    replay.Recorded.origins;
  (* the new source participates in threshold analysis like any other *)
  List.iter
    (fun ni ->
      let flagged =
        (Recorded.replay ~policy:(Policy.make ~ni ~nt:3 ()) recorded)
          .Recorded.flagged
      in
      Printf.printf "NI=%-2d -> %s\n" ni
        (if flagged then "detected" else "missed"))
    [ 1; 2; 3 ]
