module Policy = Pift_core.Policy
module Range = Pift_util.Range
module Event = Pift_trace.Event

type window = { mutable ltlt : int; mutable nt_used : int }

type t = {
  policy : Policy.t;
  (* (pid, byte address) membership *)
  bytes : (int * int, unit) Hashtbl.t;
  windows : (int, window) Hashtbl.t;
}

let create policy =
  { policy; bytes = Hashtbl.create 256; windows = Hashtbl.create 4 }

let window t pid =
  match Hashtbl.find_opt t.windows pid with
  | Some w -> w
  | None ->
      let w = { ltlt = min_int / 2; nt_used = 0 } in
      Hashtbl.add t.windows pid w;
      w

let iter_bytes r f =
  for a = Range.lo r to Range.hi r do
    f a
  done

let taint_source t ~pid r =
  iter_bytes r (fun a -> Hashtbl.replace t.bytes (pid, a) ())

let untaint t ~pid r =
  iter_bytes r (fun a -> Hashtbl.remove t.bytes (pid, a))

let is_tainted t ~pid r =
  let hit = ref false in
  iter_bytes r (fun a -> if Hashtbl.mem t.bytes (pid, a) then hit := true);
  !hit

let observe t e =
  match e.Event.access with
  | Event.Other -> ()
  | Event.Load r ->
      if is_tainted t ~pid:e.pid r then begin
        let w = window t e.pid in
        w.ltlt <- e.k;
        w.nt_used <- 0
      end
  | Event.Store r ->
      let w = window t e.pid in
      if e.k <= w.ltlt + t.policy.Policy.ni && w.nt_used < t.policy.Policy.nt
      then begin
        taint_source t ~pid:e.pid r;
        w.nt_used <- w.nt_used + 1
      end
      else if t.policy.Policy.untaint then untaint t ~pid:e.pid r

let tainted_bytes t = Hashtbl.length t.bytes

let range_count t =
  let addrs = Hashtbl.fold (fun k () acc -> k :: acc) t.bytes [] in
  let sorted = List.sort compare addrs in
  let count_runs (n, prev) addr =
    match prev with
    | Some (ppid, pa) when fst addr = ppid && snd addr = pa + 1 ->
        (n, Some addr)
    | Some _ | None -> (n + 1, Some addr)
  in
  fst (List.fold_left count_runs (0, None) sorted)
