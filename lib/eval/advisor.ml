module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker

type labelled = { recording : Recorded.t; leaky : bool }

let of_apps apps =
  List.map
    (fun (a : Pift_workloads.App.t) ->
      { recording = Recorded.record a; leaky = a.Pift_workloads.App.leaky })
    apps

type candidate = {
  policy : Policy.t;
  false_negatives : string list;
  false_positives : string list;
  overtaint_cost : int;
}

(* The candidate of one policy, from each recording's replay at it, in
   corpus order. *)
let candidate corpus ~policy replays =
  let fns = ref [] and fps = ref [] and cost = ref 0 in
  List.iteri
    (fun i { recording; leaky } ->
      let replay : Recorded.replay = replays.(i) in
      cost := !cost + replay.Recorded.stats.Tracker.max_tainted_bytes;
      match (leaky, replay.Recorded.flagged) with
      | true, false -> fns := recording.Recorded.name :: !fns
      | false, true -> fps := recording.Recorded.name :: !fps
      | true, true | false, false -> ())
    corpus;
  {
    policy;
    false_negatives = List.rev !fns;
    false_positives = List.rev !fps;
    overtaint_cost = !cost;
  }

let evaluate corpus ~policy =
  candidate corpus ~policy
    (Array.of_list
       (List.map (fun l -> Recorded.replay ~policy l.recording) corpus))

let recommend ?(max_ni = 20) ?(max_nt = 10) corpus =
  let nis = List.init max_ni succ and nts = List.init max_nt succ in
  let walks =
    Array.of_list
      (List.map
         (fun l ->
           Array.of_list
             (Recorded.replay_grid ~nis ~nts l.recording).Recorded.answers)
         corpus)
  in
  let key c = (c.overtaint_cost, c.policy.Policy.ni, c.policy.Policy.nt) in
  let best = ref None in
  List.iteri
    (fun j (ni, nt) ->
      let replays = Array.map (fun answers -> snd answers.(j)) walks in
      let c = candidate corpus ~policy:(Policy.make ~ni ~nt ()) replays in
      if c.false_negatives = [] && c.false_positives = [] then
        match !best with
        | Some b when key b <= key c -> ()
        | _ -> best := Some c)
    (List.concat_map (fun ni -> List.map (fun nt -> (ni, nt)) nts) nis);
  !best

let pp_candidate ppf c =
  Format.fprintf ppf
    "@[<v>policy %s: %d FN, %d FP, overtaint cost %d bytes%a%a@]"
    (Policy.to_string c.policy)
    (List.length c.false_negatives)
    (List.length c.false_positives)
    c.overtaint_cost
    (fun ppf -> function
      | [] -> ()
      | l -> Format.fprintf ppf "@,missed: %s" (String.concat ", " l))
    c.false_negatives
    (fun ppf -> function
      | [] -> ()
      | l -> Format.fprintf ppf "@,false alarms: %s" (String.concat ", " l))
    c.false_positives
