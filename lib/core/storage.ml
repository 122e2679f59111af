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
  mutable lookups : int;
  mutable hits : int;
  mutable secondary_hits : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable drops : int;
  mutable writebacks : int;
  mutable max_occupancy : int;
}

type t = {
  slots : slot array;
  (* No slot at or above [top] is valid: [free_slot] always takes the
     lowest free slot, so every scan can stop at [top]. *)
  mutable top : int;
  eviction : eviction;
  granularity : int option;
  (* Secondary storage in main memory, per process. *)
  secondary : Store.t;
  (* What the model holds, per process: the valid primary entries plus
     the secondary set.  Evictions, promotions and context switches only
     move bytes between the two, so they leave it as it is. *)
  view : Store.t;
  mutable clock : int;
  mutable occupancy : int;
  st : stats;
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
    top = 0;
    eviction;
    granularity;
    secondary = Store.create ();
    view = Store.create ();
    clock = 0;
    occupancy = 0;
    st =
      {
        lookups = 0;
        hits = 0;
        secondary_hits = 0;
        insertions = 0;
        evictions = 0;
        drops = 0;
        writebacks = 0;
        max_occupancy = 0;
      };
  }

let align t r =
  match t.granularity with
  | None -> r
  | Some g ->
      let block = 1 lsl g in
      let lo = Range.lo r / block * block in
      let hi = ((Range.hi r / block) + 1) * block - 1 in
      Range.make lo hi

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let writeback t s =
  t.secondary.add ~pid:s.pid (Range.make s.lo s.hi);
  t.st.writebacks <- t.st.writebacks + 1;
  s.valid <- false

(* The lowest free slot, evicting the least recently used entry when
   none is free; -1 when a full [Drop] cache loses the entry. *)
let free_slot t =
  let i = ref 0 in
  while !i < t.top && t.slots.(!i).valid do
    incr i
  done;
  if !i < Array.length t.slots then begin
    if !i = t.top then t.top <- !i + 1;
    !i
  end
  else
    match t.eviction with
    | Drop ->
        t.st.drops <- t.st.drops + 1;
        -1
    | Lru_writeback ->
        let v = ref 0 in
        for j = 1 to t.top - 1 do
          if t.slots.(j).stamp < t.slots.(!v).stamp then v := j
        done;
        writeback t t.slots.(!v);
        t.st.evictions <- t.st.evictions + 1;
        t.occupancy <- t.occupancy - 1;
        !v

(* Merge [lo, hi] into the first entry of [pid] it overlaps or touches
   (the range-cache update of Tiwari et al. [17]), else allocate one.
   False when the entry was dropped. *)
let place t ~pid lo hi =
  t.st.insertions <- t.st.insertions + 1;
  let i = ref 0 in
  while
    !i < t.top
    &&
    let s = t.slots.(!i) in
    not (s.valid && s.pid = pid && s.lo <= hi + 1 && lo <= s.hi + 1)
  do
    incr i
  done;
  if !i < t.top then begin
    let s = t.slots.(!i) in
    if lo < s.lo then s.lo <- lo;
    if hi > s.hi then s.hi <- hi;
    s.stamp <- tick t;
    true
  end
  else
    let i = free_slot t in
    i >= 0
    && begin
         let s = t.slots.(i) in
         s.pid <- pid;
         s.lo <- lo;
         s.hi <- hi;
         s.stamp <- tick t;
         s.valid <- true;
         t.occupancy <- t.occupancy + 1;
         if t.occupancy > t.st.max_occupancy then
           t.st.max_occupancy <- t.occupancy;
         true
       end

let insert t ~pid r =
  let r = align t r in
  if place t ~pid (Range.lo r) (Range.hi r) then t.view.add ~pid r

(* A trimmed piece the cache could not re-place is gone, except where
   another entry or the secondary set still covers it. *)
let forget t ~pid p =
  t.view.remove ~pid p;
  for i = 0 to t.top - 1 do
    let s = t.slots.(i) in
    if s.valid && s.pid = pid && s.lo <= Range.hi p && Range.lo p <= s.hi
    then t.view.add ~pid (Range.make s.lo s.hi)
  done;
  List.iter
    (fun q -> if Range.overlaps p q then t.view.add ~pid q)
    (t.secondary.ranges ~pid)

let remove t ~pid r =
  let r = align t r in
  let lo = Range.lo r and hi = Range.hi r in
  t.view.remove ~pid r;
  (* Trim every overlapping primary entry; a middle cut leaves two pieces,
     the second of which needs a fresh slot. *)
  let pending = ref [] in
  for i = 0 to t.top - 1 do
    let s = t.slots.(i) in
    if s.valid && s.pid = pid && s.lo <= hi && lo <= s.hi then
      if s.lo >= lo && s.hi <= hi then begin
        s.valid <- false;
        t.occupancy <- t.occupancy - 1
      end
      else if s.lo >= lo then s.lo <- hi + 1
      else begin
        if s.hi > hi then pending := Range.make (hi + 1) s.hi :: !pending;
        s.hi <- lo - 1
      end
  done;
  let lost = ref [] in
  List.iter
    (fun p ->
      if not (place t ~pid (Range.lo p) (Range.hi p)) then lost := p :: !lost)
    !pending;
  (* Secondary storage is exact. *)
  t.secondary.remove ~pid r;
  List.iter (forget t ~pid) !lost

let lookup t ~pid r =
  let r = align t r in
  let lo = Range.lo r and hi = Range.hi r in
  t.st.lookups <- t.st.lookups + 1;
  let hit = ref false in
  for i = 0 to t.top - 1 do
    let s = t.slots.(i) in
    if s.valid && s.pid = pid && s.lo <= hi && lo <= s.hi then begin
      s.stamp <- tick t;
      hit := true
    end
  done;
  if !hit then t.st.hits <- t.st.hits + 1;
  !hit
  ||
  match t.eviction with
  | Drop -> false
  | Lru_writeback ->
      t.secondary.overlaps ~pid r
      && begin
           t.st.secondary_hits <- t.st.secondary_hits + 1;
           (* Promote: hardware refetches the matching range. *)
           let p =
             List.find (fun p -> Range.overlaps p r) (t.secondary.ranges ~pid)
           in
           t.secondary.remove ~pid p;
           ignore (place t ~pid (Range.lo p) (Range.hi p));
           true
         end

let release_pid t ~pid =
  (* Tenant eviction: invalidate the pid's primary entries (keeping the
     occupancy honest) and drop its secondary set outright — no
     writeback, the state is being discarded, not displaced. *)
  for i = 0 to t.top - 1 do
    let s = t.slots.(i) in
    if s.valid && s.pid = pid then begin
      s.valid <- false;
      t.occupancy <- t.occupancy - 1
    end
  done;
  t.secondary.release_pid ~pid;
  t.view.release_pid ~pid

let context_switch t =
  for i = 0 to t.top - 1 do
    if t.slots.(i).valid then writeback t t.slots.(i)
  done;
  t.occupancy <- 0;
  t.top <- 0

let occupancy t = t.occupancy
let tainted_bytes t = t.view.tainted_bytes ()
let range_count t = t.view.range_count ()
let ranges t ~pid = t.view.ranges ~pid

(* A copy: the caller's snapshot does not move with later traffic. *)
let stats t = { t.st with lookups = t.st.lookups }

let store t =
  {
    Store.add = insert t;
    remove = remove t;
    overlaps = lookup t;
    tainted_bytes = t.view.tainted_bytes;
    range_count = t.view.range_count;
    ranges = t.view.ranges;
    release_pid = release_pid t;
    (* The range cache is lossy (drop policy) and not a durable source
       of truth; snapshotting it would silently persist a partial
       state, so it refuses instead. *)
    dump = (fun () -> failwith "Storage.store: dump unsupported");
    merges = (fun () -> failwith "Storage.store: merges not counted");
  }
