module Range = Pift_util.Range

(* The FIFO is a ring of [Array.length ranges] slots from [head]: slot
   [i] is the access's range and, from [4 * i], whether it is a load,
   its pid, seq and k. *)
type t = {
  tracker : Tracker.t;
  ints : int array;
  ranges : Range.t array;
  mutable head : int;
  mutable len : int;
  drain_batch : int;
  mutable dropped : int;
}

let create ?(policy = Policy.default) ?(buffer_size = 4096)
    ?(drain_batch = 256) () =
  if buffer_size <= 0 then invalid_arg "Deferred.create: buffer_size";
  if drain_batch <= 0 then invalid_arg "Deferred.create: drain_batch";
  {
    tracker = Tracker.create ~policy ();
    ints = Array.make (4 * buffer_size) 0;
    ranges = Array.make buffer_size (Range.byte 0);
    head = 0;
    len = 0;
    drain_batch;
    dropped = 0;
  }

let drain_some t n =
  for _ = 1 to min n t.len do
    let i = t.head and a = 4 * t.head in
    t.head <- (i + 1) mod Array.length t.ranges;
    t.len <- t.len - 1;
    (if t.ints.(a) = 1 then Tracker.on_load else Tracker.on_store)
      t.tracker ~pid:t.ints.(a + 1) ~seq:t.ints.(a + 2) ~k:t.ints.(a + 3)
      t.ranges.(i)
  done

let drain_all t = drain_some t max_int

let taint_source t ~pid r =
  drain_all t;
  Tracker.taint_source t.tracker ~pid r

let push t ~load ~pid ~seq ~k r =
  let size = Array.length t.ranges in
  if t.len >= size then begin
    t.head <- (t.head + 1) mod size;
    t.len <- t.len - 1;
    t.dropped <- t.dropped + 1
  end;
  let i = (t.head + t.len) mod size in
  let a = 4 * i in
  t.ints.(a) <- (if load then 1 else 0);
  t.ints.(a + 1) <- pid;
  t.ints.(a + 2) <- seq;
  t.ints.(a + 3) <- k;
  t.ranges.(i) <- r;
  t.len <- t.len + 1

let tick t = drain_some t t.drain_batch

let check t ~pid r =
  drain_all t;
  Tracker.is_tainted t.tracker ~pid r

let dropped t = t.dropped
let buffered t = t.len
let tracker t = t.tracker
