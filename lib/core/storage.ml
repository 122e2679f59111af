module Range = Pift_util.Range

type eviction = Lru_writeback | Drop

type slot = {
  mutable pid : int;
  mutable lo : int;
  mutable hi : int;
  mutable valid : bool;
  mutable stamp : int;
}

type stats = {
  lookups : int;
  hits : int;
  secondary_hits : int;
  insertions : int;
  evictions : int;
  drops : int;
  writebacks : int;
  max_occupancy : int;
}

type t = {
  slots : slot array;
  eviction : eviction;
  granularity : int option;
  (* Secondary storage in main memory, per process. *)
  secondary : (int, Store_flat.t) Hashtbl.t;
  mutable clock : int;
  mutable occupancy : int;
  mutable lookups : int;
  mutable hits : int;
  mutable secondary_hits : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable drops : int;
  mutable writebacks : int;
  mutable max_occupancy : int;
}

let create ?(entries = 2730) ?(eviction = Lru_writeback)
    ?(granularity = None) () =
  if entries <= 0 then invalid_arg "Storage.create: entries must be positive";
  (match granularity with
  | Some r when r < 0 || r > 20 ->
      invalid_arg "Storage.create: granularity out of range"
  | Some _ | None -> ());
  {
    slots =
      Array.init entries (fun _ ->
          { pid = 0; lo = 0; hi = 0; valid = false; stamp = 0 });
    eviction;
    granularity;
    secondary = Hashtbl.create 4;
    clock = 0;
    occupancy = 0;
    lookups = 0;
    hits = 0;
    secondary_hits = 0;
    insertions = 0;
    evictions = 0;
    drops = 0;
    writebacks = 0;
    max_occupancy = 0;
  }

let align t r =
  match t.granularity with
  | None -> r
  | Some g ->
      let block = 1 lsl g in
      let lo = Range.lo r / block * block in
      let hi = ((Range.hi r / block) + 1) * block - 1 in
      Range.make lo hi

let secondary_set t pid =
  match Hashtbl.find_opt t.secondary pid with
  | Some s -> s
  | None ->
      let s = Store_flat.create () in
      Hashtbl.add t.secondary pid s;
      s

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Find a free slot, evicting if necessary.  Returns [None] when the
   entry had to be dropped. *)
let free_slot t =
  let free = ref None in
  Array.iter
    (fun s -> if (not s.valid) && !free = None then free := Some s)
    t.slots;
  match !free with
  | Some s -> Some s
  | None -> (
      match t.eviction with
      | Drop ->
          t.drops <- t.drops + 1;
          None
      | Lru_writeback ->
          let victim =
            Array.fold_left
              (fun acc s ->
                match acc with
                | None -> Some s
                | Some best -> if s.stamp < best.stamp then Some s else acc)
              None t.slots
          in
          let s = Option.get victim in
          let set = secondary_set t s.pid in
          Store_flat.add set (Range.make s.lo s.hi);
          t.evictions <- t.evictions + 1;
          t.writebacks <- t.writebacks + 1;
          s.valid <- false;
          t.occupancy <- t.occupancy - 1;
          Some s)

let fill slot ~pid ~lo ~hi ~stamp =
  slot.pid <- pid;
  slot.lo <- lo;
  slot.hi <- hi;
  slot.stamp <- stamp;
  slot.valid <- true

let insert t ~pid r =
  let r = align t r in
  t.insertions <- t.insertions + 1;
  (* Merge with an existing overlapping-or-adjacent entry when possible
     (the range-cache update of Tiwari et al. [17]); otherwise allocate. *)
  let merged = ref false in
  Array.iter
    (fun s ->
      if
        (not !merged) && s.valid && s.pid = pid
        &&
        let e = Range.make s.lo s.hi in
        Range.overlaps e r || Range.adjacent e r
      then begin
        s.lo <- min s.lo (Range.lo r);
        s.hi <- max s.hi (Range.hi r);
        s.stamp <- tick t;
        merged := true
      end)
    t.slots;
  if not !merged then
    match free_slot t with
    | None -> ()
    | Some slot ->
        fill slot ~pid ~lo:(Range.lo r) ~hi:(Range.hi r) ~stamp:(tick t);
        t.occupancy <- t.occupancy + 1;
        if t.occupancy > t.max_occupancy then t.max_occupancy <- t.occupancy

let remove t ~pid r =
  let r = align t r in
  (* Trim every overlapping primary entry; a middle cut leaves two pieces,
     the second of which needs a fresh slot. *)
  let pending = ref [] in
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid && Range.overlaps (Range.make s.lo s.hi) r
      then begin
        let pieces = Range.subtract (Range.make s.lo s.hi) r in
        match pieces with
        | [] ->
            s.valid <- false;
            t.occupancy <- t.occupancy - 1
        | [ p ] ->
            s.lo <- Range.lo p;
            s.hi <- Range.hi p
        | p1 :: rest ->
            s.lo <- Range.lo p1;
            s.hi <- Range.hi p1;
            pending := rest @ !pending
      end)
    t.slots;
  List.iter (fun p -> insert t ~pid p) !pending;
  (* Secondary storage is exact. *)
  match Hashtbl.find_opt t.secondary pid with
  | Some set -> Store_flat.remove set r
  | None -> ()

let primary_lookup t ~pid r =
  let hit = ref false in
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid && Range.overlaps (Range.make s.lo s.hi) r
      then begin
        s.stamp <- tick t;
        hit := true
      end)
    t.slots;
  !hit

let lookup t ~pid r =
  let r = align t r in
  t.lookups <- t.lookups + 1;
  if primary_lookup t ~pid r then begin
    t.hits <- t.hits + 1;
    true
  end
  else
    match t.eviction with
    | Drop -> false
    | Lru_writeback -> (
        match Hashtbl.find_opt t.secondary pid with
        | Some set when Store_flat.mem_overlap set r ->
            t.secondary_hits <- t.secondary_hits + 1;
            (* Promote: hardware refetches the matching range. *)
            let promoted =
              List.find_opt
                (fun p -> Range.overlaps p r)
                (Store_flat.ranges set)
            in
            (match promoted with
            | Some p ->
                Store_flat.remove set p;
                insert t ~pid p
            | None -> ());
            true
        | Some _ | None -> false)

let release_pid t ~pid =
  (* Tenant eviction: invalidate the pid's primary entries (keeping the
     occupancy honest) and drop its secondary set outright — no
     writeback, the state is being discarded, not displaced. *)
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid then begin
        s.valid <- false;
        t.occupancy <- t.occupancy - 1
      end)
    t.slots;
  Hashtbl.remove t.secondary pid

let context_switch t =
  Array.iter
    (fun s ->
      if s.valid then begin
        let set = secondary_set t s.pid in
        Store_flat.add set (Range.make s.lo s.hi);
        t.writebacks <- t.writebacks + 1;
        s.valid <- false
      end)
    t.slots;
  t.occupancy <- 0

let occupancy t = t.occupancy

(* Exact union across (possibly overlapping) primary entries plus the
   secondary store. *)
let union_set t =
  let set = ref Range_set.empty in
  Array.iter
    (fun s ->
      if s.valid then set := Range_set.add !set (Range.make s.lo s.hi))
    t.slots;
  Hashtbl.iter
    (fun _ sec ->
      List.iter
        (fun r -> set := Range_set.add !set r)
        (Store_flat.ranges sec))
    t.secondary;
  !set

let tainted_bytes t = Range_set.total_bytes (union_set t)
let range_count t = Range_set.cardinal (union_set t)

let ranges t ~pid =
  let set = ref Range_set.empty in
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid then
        set := Range_set.add !set (Range.make s.lo s.hi))
    t.slots;
  (match Hashtbl.find_opt t.secondary pid with
  | Some sec ->
      List.iter
        (fun r -> set := Range_set.add !set r)
        (Store_flat.ranges sec)
  | None -> ());
  Range_set.ranges !set

let stats t =
  {
    lookups = t.lookups;
    hits = t.hits;
    secondary_hits = t.secondary_hits;
    insertions = t.insertions;
    evictions = t.evictions;
    drops = t.drops;
    writebacks = t.writebacks;
    max_occupancy = t.max_occupancy;
  }
