module Range = Pift_util.Range

type t = {
  add : pid:int -> Range.t -> unit;
  remove : pid:int -> Range.t -> unit;
  overlaps : pid:int -> Range.t -> bool;
  tainted_bytes : unit -> int;
  range_count : unit -> int;
  ranges : pid:int -> Range.t list;
  release_pid : pid:int -> unit;
  dump : unit -> (int * Range.t list) list;
  merges : unit -> int;
}

let create () =
  let sets : (int, Store_flat.t) Hashtbl.t = Hashtbl.create 4 in
  (* One-entry cache beside the table: the last pid touched and its set,
     or [absent] when the table has none for it.  Every tracker serves
     one process nearly all the time, so the cache saves the hashing
     (and the [Some] of [find_opt]) on almost every op.  Invariant:
     [!cached_set] is [Hashtbl.find sets !cached_pid], or [absent] when
     that pid has no set — it holds for the empty table at start, and
     [release_pid] restores it when it drops the cached pid. *)
  let absent = Store_flat.create () in
  let cached_pid = ref min_int and cached_set = ref absent in
  (* Read paths go through [peek] and get [absent] for an unseen pid: a
     sink check on a never-seen PID must not grow the table and inflate
     range_count/memory on pure queries.  [absent] is never mutated. *)
  let peek pid =
    if pid = !cached_pid then !cached_set
    else begin
      let s = try Hashtbl.find sets pid with Not_found -> absent in
      cached_pid := pid;
      cached_set := s;
      s
    end
  in
  (* Mutating paths may materialise a set for a new PID. *)
  let set pid =
    let s = peek pid in
    if s != absent then s
    else begin
      let s = Store_flat.create () in
      Hashtbl.add sets pid s;
      cached_set := s;
      s
    end
  in
  (* Store-wide totals are maintained per-op from the single touched
     set's O(1) counters instead of re-folding the whole table: the
     tracker reads both on every taint/untaint op (update_peaks), which
     made the old Hashtbl.fold quadratic-ish on multi-PID replays. *)
  let total_bytes = ref 0 in
  let total_count = ref 0 in
  (* Applies [op] and returns how much it changed the range count. *)
  let mutate op pid r =
    let s = set pid in
    let bytes = Store_flat.total_bytes s and count = Store_flat.cardinal s in
    op s r;
    let grown = Store_flat.cardinal s - count in
    total_bytes := !total_bytes + Store_flat.total_bytes s - bytes;
    total_count := !total_count + grown;
    grown
  in
  (* An add that did not raise the range count coalesced into (or was
     covered by) a range already held. *)
  let merges = ref 0 in
  {
    add =
      (fun ~pid r -> if mutate Store_flat.add pid r <= 0 then incr merges);
    remove = (fun ~pid r -> ignore (mutate Store_flat.remove pid r));
    overlaps = (fun ~pid r -> Store_flat.mem_overlap (peek pid) r);
    tainted_bytes = (fun () -> !total_bytes);
    range_count = (fun () -> !total_count);
    ranges = (fun ~pid -> Store_flat.ranges (peek pid));
    release_pid =
      (fun ~pid ->
        let s = peek pid in
        if s != absent then begin
          total_bytes := !total_bytes - Store_flat.total_bytes s;
          total_count := !total_count - Store_flat.cardinal s;
          Hashtbl.remove sets pid;
          cached_set := absent
        end);
    (* Snapshot extraction: every pid's canonical range list, sorted by
       pid so the dump is deterministic whatever the Hashtbl order.
       Pids whose set emptied out are omitted — a restored store is
       semantically identical (overlaps/ranges/counters agree), it just
       doesn't resurrect empty per-pid sets. *)
    dump =
      (fun () ->
        List.sort
          (fun (p1, _) (p2, _) -> compare (p1 : int) p2)
          (Hashtbl.fold
             (fun pid s acc ->
               match Store_flat.ranges s with
               | [] -> acc
               | rs -> (pid, rs) :: acc)
             sets []));
    merges = (fun () -> !merges);
  }

(* Store operations bracketed as "store" profiler regions, so folded
   stacks separate interval-set cost from the caller's own logic. *)
let with_profile profile inner =
  let region f =
    Pift_obs.Profile.enter profile "store";
    let v = f () in
    Pift_obs.Profile.leave profile;
    v
  in
  {
    inner with
    add = (fun ~pid r -> region (fun () -> inner.add ~pid r));
    remove = (fun ~pid r -> region (fun () -> inner.remove ~pid r));
    overlaps = (fun ~pid r -> region (fun () -> inner.overlaps ~pid r));
  }
