module Range = Pift_util.Range
module Event = Pift_trace.Event
module Row = Pift_trace.Row
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Pool = Pift_par.Pool

type item =
  | I_event of Event.t
  | I_source of { pid : int; kind : string; range : Range.t }
  | I_sink of { pid : int; kind : string; ranges : Range.t list }

type stream = unit -> item option

type side =
  | S_source of { pid : int; kind : string; range : Range.t }
  | S_sink of { pid : int; kind : string; ranges : Range.t list }

type verdict = { v_kind : string; v_flagged : bool; v_origins : string list }

(* One tenant = one pid = one private tracker stack (store + optional
   provenance sidecar).  Private per tenant, not per shard: the tracker's
   stats are then the tenant's alone, which is what makes the
   interleaved engine byte-identical to N isolated replays — the
   differential harness's whole claim. *)
type tenant = {
  tn_pid : int;
  mutable tn_name : string;
  tn_tracker : Tracker.t;
  mutable tn_verdicts_rev : verdict list;
  mutable tn_dropped : int;  (* items lost to the dropping policy *)
}

(* A column batch: the shard queues carry these, not item values.  Row
   [r] is the [Row.width] ints at [r * Row.width] of [b_rows]: tag, pid,
   seq, k, lo, len — the Fig. 5 record, flat, except that a run of one
   pid's non-memory instructions is one counted row.  The rare
   non-event items have tag [Row.tag_item] and travel in [b_side] at
   their row index, as [side] values, which have no event case; every
   other side slot holds [no_side].  Batches are made lazily by the
   producer, handed back by the consumer once drained (through the
   shard's [sh_free]), and reused across runs, so the steady state
   allocates none and queues no pointer into the minor heap.  The producer writes [b_len] before the push and not again
   until the batch comes back, so the consumer reads it after the
   pop. *)
type batch = { b_rows : int array; b_side : side array; mutable b_len : int }

type fill = batch -> int -> bool

let width = Row.width
let no_side = S_sink { pid = min_int; kind = ""; ranges = [] }
let no_batch = { b_rows = [||]; b_side = [||]; b_len = 0 }

let make_batch n =
  { b_rows = Array.make (n * width) 0; b_side = Array.make n no_side; b_len = 0 }

type shard = {
  sh_id : int;
  sh_tenants : (int, tenant) Hashtbl.t;
  (* The tenant [tenant_of] found last, or [no_tenant]: the ingest
     schedule serves a tenant a window of seqs at a time, so the
     consumer hashes once per tenant switch, not per row.  Tenants are
     never removed, so the cache never goes stale. *)
  mutable sh_last : tenant;
  mutable sh_queue : batch Spsc.t;  (* fresh per run *)
  (* Drained batches on their way back from the consumer to the
     producer.  The only batch state both domains touch, hence atomic;
     kept across runs. *)
  sh_free : batch list Atomic.t;
  (* Plain counters, read only by [stats] while the engine is idle. *)
  mutable sh_items : int;
  mutable sh_events : int;
  mutable sh_batches : int;
  mutable sh_dropped : int;
  mutable sh_max_queue_depth : int;
}

type config = {
  shards : int;
  policy : Policy.t;
  queue_capacity : int;
  batch : int;
  drop_when_full : bool;
  with_origins : bool;
}

type t = {
  cfg : config;
  pool : Pool.t;
  shard_arr : shard array;
  mutable closed : bool;
  (* Fault injection for the crash-recovery tests: the consumer of
     [fault_shard] raises after processing [fault_after] more items,
     exercising the Spsc abort path exactly as a real consumer death
     would.  Armed while idle; only that shard's consumer reads and
     disarms it during a run. *)
  mutable fault_shard : int;
  mutable fault_after : int;  (* negative = disarmed *)
}

(* An empty [sh_last].  Never returned: [tenant_of] tells it from a
   real tenant of pid [min_int] by identity. *)
let no_tenant =
  {
    tn_pid = min_int;
    tn_name = "";
    tn_tracker = Tracker.create ();
    tn_verdicts_rev = [];
    tn_dropped = 0;
  }

let make_shard id =
  {
    sh_id = id;
    sh_tenants = Hashtbl.create 8;
    sh_last = no_tenant;
    sh_queue = Spsc.create ~capacity:1 ~empty:no_batch;
    sh_free = Atomic.make [];
    sh_items = 0;
    sh_events = 0;
    sh_batches = 0;
    sh_dropped = 0;
    sh_max_queue_depth = 0;
  }

let create ?(shards = 1) ?(policy = Policy.default) ?(queue_capacity = 64)
    ?(batch = 128) ?(drop_when_full = false) ?(with_origins = false) () =
  if shards <= 0 then invalid_arg "Engine.create: shards must be positive";
  if queue_capacity <= 0 then
    invalid_arg "Engine.create: queue_capacity must be positive";
  if batch <= 0 then invalid_arg "Engine.create: batch must be positive";
  let cfg =
    { shards; policy; queue_capacity; batch; drop_when_full; with_origins }
  in
  {
    cfg;
    (* One pool slot per shard consumer plus slot 0 for the ingest
       producer; [Pool.run_job] hands each role exactly one call.  The
       domains are spawned by the first run, after the caller's
       readers are open. *)
    pool = Pool.create ~jobs:(shards + 1) ();
    shard_arr = Array.init shards make_shard;
    closed = false;
    fault_shard = 0;
    fault_after = -1;
  }

let shards t = t.cfg.shards
let policy t = t.cfg.policy
let with_origins t = t.cfg.with_origins

(* A tenant's pid block: [Ingest] places tenant [i] at [(i + 1) *
   pid_range] and refuses a recorded pid that would leave the block. *)
let pid_range = 1 lsl 20

(* PID-range partitioning: pids land on shards in contiguous blocks of
   [pid_range], so one process's whole address space of pids-it-spawns
   stays local while distinct tenants spread round-robin.  The shard is
   [((pid / pid_range) mod shards + shards) mod shards]; this runs per
   row on the producer, so one shard skips the arithmetic and the
   outer [mod] is a sign test ([mod] keeps the dividend's sign). *)
let shard_index t pid =
  let n = t.cfg.shards in
  if n = 1 then 0
  else
    let s = pid / pid_range mod n in
    if s < 0 then s + n else s

let shard_of t pid = t.shard_arr.(shard_index t pid)

let new_tenant t sh pid =
  let cfg = t.cfg in
  let store = Store.create () in
  let prov = if cfg.with_origins then Some (Provenance.create ()) else None in
  let tracker = Tracker.create ~policy:cfg.policy ~store ?prov () in
  let tn =
    {
      tn_pid = pid;
      tn_name = Printf.sprintf "pid-%d" pid;
      tn_tracker = tracker;
      tn_verdicts_rev = [];
      tn_dropped = 0;
    }
  in
  Hashtbl.add sh.sh_tenants pid tn;
  tn

let tenant_of t sh pid =
  let last = sh.sh_last in
  if last.tn_pid = pid && last != no_tenant then last
  else begin
    let tn =
      match Hashtbl.find_opt sh.sh_tenants pid with
      | Some tn -> tn
      | None -> new_tenant t sh pid
    in
    sh.sh_last <- tn;
    tn
  end

let sink_verdict t tn ~pid ~kind ranges =
  let flagged =
    List.exists (fun r -> Tracker.is_tainted tn.tn_tracker ~pid r) ranges
  in
  let origins =
    if t.cfg.with_origins then
      List.sort_uniq String.compare
        (List.concat_map
           (fun r -> Tracker.origins_of tn.tn_tracker ~pid r)
           ranges)
    else []
  in
  { v_kind = kind; v_flagged = flagged; v_origins = origins }

let process_side t sh = function
  | S_source { pid; kind; range } ->
      let tn = tenant_of t sh pid in
      Tracker.taint_source ~kind tn.tn_tracker ~pid range
  | S_sink { pid; kind; ranges } ->
      let tn = tenant_of t sh pid in
      tn.tn_verdicts_rev <-
        sink_verdict t tn ~pid ~kind ranges :: tn.tn_verdicts_rev

(* [n] items of the counted row at [o]: all of them, or the first ones
   when an injected fault lands inside the row. *)
let process_other t sh rows o n =
  sh.sh_items <- sh.sh_items + n;
  sh.sh_events <- sh.sh_events + n;
  let tn = tenant_of t sh rows.(o + 1) in
  Tracker.on_other tn.tn_tracker ~seq:rows.(o + 2) ~n

(* Row [r] of [b], in place: an event row goes to Algorithm 1's step
   for its tag as plain ints (and, for a load or store, the one range
   [Row.range] builds and validates before the tenant is touched), so
   no [Event.t] is built; a side item is taken out of its slot first,
   so a drained batch keeps no item reachable. *)
let process_row t sh b r =
  let rows = b.b_rows and o = r * width in
  let tag = rows.(o) in
  if tag = Row.tag_other then process_other t sh rows o rows.(o + 5)
  else begin
    sh.sh_items <- sh.sh_items + 1;
    if tag = Row.tag_item then begin
      let side = b.b_side.(r) in
      b.b_side.(r) <- no_side;
      process_side t sh side
    end
    else begin
      let range = Row.range rows o in
      let pid = rows.(o + 1) and seq = rows.(o + 2) and k = rows.(o + 3) in
      sh.sh_events <- sh.sh_events + 1;
      let tn = tenant_of t sh pid in
      if tag = Row.tag_load then
        Tracker.on_load tn.tn_tracker ~pid ~seq ~k range
      else Tracker.on_store tn.tn_tracker ~pid ~seq ~k range
    end
  end

(* A non-event item's row, its value beside it. *)
let put_side b pid side =
  let r = b.b_len in
  Row.set_item b.b_rows (r * width) ~pid ~seq:0;
  b.b_side.(r) <- side;
  b.b_len <- r + 1

(* Append one streamed item to [b]: a non-memory event joins the last
   row when that row counts the same pid's non-memory events (as
   [Ingest.fill] folds), anything else is the next row. *)
let put b item =
  let r = b.b_len in
  match item with
  | I_event { Event.access = Event.Other; pid; seq; k }
    when r > 0 && Row.fold b.b_rows ((r - 1) * width) ~pid ~seq ~k ->
      ()
  | I_event e ->
      Row.set_event b.b_rows (r * width) e;
      b.b_len <- r + 1
  | I_source { pid; kind; range } ->
      put_side b pid (S_source { pid; kind; range })
  | I_sink { pid; kind; ranges } ->
      put_side b pid (S_sink { pid; kind; ranges })

(* Items of [stream], one pull each, until [b] holds [stop] rows.  No
   item is pulled once it does, so a fold never reaches past the
   room. *)
let rec pull_until stream b stop =
  b.b_len = stop
  ||
  match stream () with
  | None -> false
  | Some item ->
      put b item;
      pull_until stream b stop

(* [run]'s fill: [n] more rows of [stream]. *)
let fill_from stream b n = pull_until stream b (b.b_len + n)

(* Move row [r] of [src] to row [d] of [dst], side item included. *)
let move_row src r dst d =
  Row.blit src.b_rows (r * width) dst.b_rows (d * width);
  if src.b_rows.(r * width) = Row.tag_item then begin
    dst.b_side.(d) <- src.b_side.(r);
    src.b_side.(r) <- no_side
  end

(* [sh_free] is a lock-free stack: the consumer pushes each drained
   batch, the producer pops one when it starts a batch and makes a new
   one only when the stack is empty.  A shard therefore owns at most
   [queue_capacity + 2] batches: the queued ones, the one being filled,
   the one being drained. *)
let rec recycle sh b =
  let free = Atomic.get sh.sh_free in
  if not (Atomic.compare_and_set sh.sh_free free (b :: free)) then
    recycle sh b

let rec take_batch t sh =
  match Atomic.get sh.sh_free with
  | [] -> make_batch t.cfg.batch
  | b :: rest as free ->
      if Atomic.compare_and_set sh.sh_free free rest then begin
        b.b_len <- 0;
        b
      end
      else take_batch t sh

(* A batch the queue refused: charge each row's items to its pid in
   [drops] and release its side items, so the producer can refill it. *)
let discard drops b =
  for r = 0 to b.b_len - 1 do
    let o = r * width in
    let pid = b.b_rows.(o + 1) in
    Hashtbl.replace drops pid
      (Row.count b.b_rows o
      + Option.value ~default:0 (Hashtbl.find_opt drops pid));
    if b.b_rows.(o) = Row.tag_item then b.b_side.(r) <- no_side
  done;
  b.b_len <- 0

(* Ingest producer (pool slot 0), the one loop every run goes through.
   Each fill call writes straight into the batch of the shard the
   previous row went to.  The rows it wrote are then routed: those of
   that shard stay, compacted in place, and any other moves to its own
   shard's batch.  So every shard sees its rows in stream order, and
   its batch boundaries are those of an item-at-a-time copy.  A full
   batch goes through the shard's bounded queue.  All queues close at
   end of stream — also on failure, after the rows a failing fill wrote
   are routed and flushed, so shard consumers always see end-of-stream
   and the pool join cannot deadlock on a producer exception.  A batch
   still held at the end (one the queue dropped) goes back to the free
   list. *)
let produce t fill drops =
  let n = t.cfg.shards and cap = t.cfg.batch in
  let cur = Array.make n no_batch in
  let batch_of s =
    if cur.(s) == no_batch then cur.(s) <- take_batch t t.shard_arr.(s);
    cur.(s)
  in
  let flush s =
    let b = cur.(s) in
    if b.b_len > 0 then
      match
        Spsc.push t.shard_arr.(s).sh_queue ~drop_when_full:t.cfg.drop_when_full
          b
      with
      | Spsc.Pushed -> cur.(s) <- no_batch
      | Spsc.Dropped -> discard drops b
  in
  (* Route rows [from, b_len) of shard [s]'s batch; the shard of the
     last of them, else [s].  With one shard every row stays. *)
  let route s from =
    let b = cur.(s) in
    let kept = ref (if n = 1 then b.b_len else from) and last = ref s in
    for r = !kept to b.b_len - 1 do
      let d = shard_index t b.b_rows.((r * width) + 1) in
      if d = s then begin
        if !kept <> r then move_row b r b !kept;
        incr kept
      end
      else begin
        let db = batch_of d in
        move_row b r db db.b_len;
        db.b_len <- db.b_len + 1;
        if db.b_len = cap then flush d
      end;
      last := d
    done;
    b.b_len <- !kept;
    if !kept = cap then flush s;
    !last
  in
  let target = ref 0 and from = ref 0 and filling = ref false in
  Fun.protect
    ~finally:(fun () ->
      if !filling then ignore (route !target !from);
      for i = 0 to n - 1 do
        let sh = t.shard_arr.(i) in
        flush i;
        Spsc.close sh.sh_queue;
        if cur.(i) != no_batch then recycle sh cur.(i)
      done)
    (fun () ->
      let more = ref true in
      while !more do
        let b = batch_of !target in
        from := b.b_len;
        filling := true;
        more := fill b (cap - b.b_len);
        filling := false;
        target := route !target !from
      done)

(* Shard consumer (pool slot 1 + shard id): drain the queue batch by
   batch until closed, walking each batch's rows in order and handing
   it back for reuse.  A consumer failure aborts its queue first, so the
   producer can never block against it, then propagates through the
   pool join; the batch it was draining is not handed back.  An
   injected fault counts items, not rows: one that lands inside a
   counted row processes the row's first items, which leaves the
   tracker's clock at the row's seq. *)
exception Injected_fault of int

let inject_fault t ~shard ~after_items =
  if shard < 0 || shard >= t.cfg.shards then
    invalid_arg "Engine.inject_fault: no such shard";
  if after_items < 0 then
    invalid_arg "Engine.inject_fault: after_items must be non-negative";
  t.fault_shard <- shard;
  t.fault_after <- after_items

let consume t sh =
  let q = sh.sh_queue in
  try
    let rec go () =
      match Spsc.pop q with
      | None -> ()
      | Some b ->
          sh.sh_batches <- sh.sh_batches + 1;
          for r = 0 to b.b_len - 1 do
            if t.fault_after >= 0 && t.fault_shard = sh.sh_id then begin
              let o = r * width in
              let n = Row.count b.b_rows o in
              if t.fault_after < n then begin
                let first = t.fault_after in
                t.fault_after <- -1;
                if first > 0 then process_other t sh b.b_rows o first;
                raise (Injected_fault sh.sh_id)
              end;
              t.fault_after <- t.fault_after - n
            end;
            process_row t sh b r
          done;
          recycle sh b;
          go ()
    in
    go ()
  with exn ->
    Spsc.abort q;
    raise exn

let run_fill t fill =
  if t.closed then invalid_arg "Engine.run: engine is shut down";
  (* Fresh queues per run: the previous run closed them. *)
  Array.iter
    (fun sh ->
      sh.sh_queue <-
        Spsc.create ~capacity:t.cfg.queue_capacity ~empty:no_batch)
    t.shard_arr;
  (* Items per pid the dropping policy discarded during this run. *)
  let drops = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () ->
      (* Fold the run's queue depths into the shard totals, and its
         losses into their shards and tenants (a batch holds only its
         shard's rows), whether the run succeeded or not. *)
      Array.iter
        (fun sh ->
          sh.sh_max_queue_depth <-
            max sh.sh_max_queue_depth (Spsc.max_depth sh.sh_queue))
        t.shard_arr;
      Hashtbl.iter
        (fun pid n ->
          let sh = shard_of t pid in
          sh.sh_dropped <- sh.sh_dropped + n;
          let tn = tenant_of t sh pid in
          tn.tn_dropped <- tn.tn_dropped + n)
        drops)
    (fun () ->
      Pool.run_job t.pool (fun ~worker ->
          if worker = 0 then produce t fill drops
          else consume t t.shard_arr.(worker - 1)))

let run t stream = run_fill t (fill_from stream)

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Pool.shutdown t.pool
  end

let with_engine ?shards ?policy ?queue_capacity ?batch ?drop_when_full
    ?with_origins f =
  let t =
    create ?shards ?policy ?queue_capacity ?batch ?drop_when_full ?with_origins
      ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- tenants (engine idle: between runs, from the owning thread) ------- *)

let find_tenant t pid = Hashtbl.find_opt (shard_of t pid).sh_tenants pid

let register_tenant t ~pid ?name () =
  let tn = tenant_of t (shard_of t pid) pid in
  match name with Some n -> tn.tn_name <- n | None -> ()

type tenant_snapshot = {
  ts_pid : int;
  ts_name : string;
  ts_shard : int;
  ts_verdicts : verdict list;
  ts_stats : Tracker.stats;
  ts_tainted_bytes : int;
  ts_ranges : int;
  ts_dropped : int;
}

let snapshot_tenant t ~pid =
  match find_tenant t pid with
  | None -> None
  | Some tn ->
      let sh = shard_of t pid in
      Some
        {
          ts_pid = pid;
          ts_name = tn.tn_name;
          ts_shard = sh.sh_id;
          ts_verdicts = List.rev tn.tn_verdicts_rev;
          ts_stats = Tracker.stats tn.tn_tracker;
          ts_tainted_bytes = Tracker.current_tainted_bytes tn.tn_tracker;
          ts_ranges = Tracker.current_ranges tn.tn_tracker;
          ts_dropped = tn.tn_dropped;
        }

let tenants t =
  List.sort compare
    (Array.to_list t.shard_arr
    |> List.concat_map (fun sh ->
           Hashtbl.fold (fun pid _ acc -> pid :: acc) sh.sh_tenants []))

(* --- durable persistence (engine idle) --------------------------------- *)

type tenant_persisted = {
  tp_pid : int;
  tp_name : string;
  tp_verdicts : verdict list;  (* stream order *)
  tp_state : Tracker.persisted;
}

let persist_tenant t ~pid =
  match find_tenant t pid with
  | None -> None
  | Some tn ->
      Some
        {
          tp_pid = pid;
          tp_name = tn.tn_name;
          tp_verdicts = List.rev tn.tn_verdicts_rev;
          tp_state = Tracker.persist tn.tn_tracker;
        }

let persist_tenants t = List.filter_map (fun pid -> persist_tenant t ~pid) (tenants t)

(* Rebuilding a tenant routes it to whatever shard the *current* config
   maps its pid to — a snapshot taken at 4 shards restores cleanly into
   a 1-shard engine, because shard placement never leaks into tenant
   state. *)
let restore_tenant t tp =
  let sh = shard_of t tp.tp_pid in
  if Hashtbl.mem sh.sh_tenants tp.tp_pid then
    invalid_arg
      (Printf.sprintf "Engine.restore_tenant: pid %d already resident"
         tp.tp_pid);
  let tn = tenant_of t sh tp.tp_pid in
  tn.tn_name <- tp.tp_name;
  tn.tn_verdicts_rev <- List.rev tp.tp_verdicts;
  Tracker.restore tn.tn_tracker tp.tp_state

type shard_stats = {
  ss_shard : int;
  ss_items : int;
  ss_events : int;
  ss_batches : int;
  ss_dropped : int;
  ss_max_queue_depth : int;
  ss_tenants : int;
}

type stats = {
  st_shards : shard_stats list;
  st_items : int;
  st_events : int;
  st_batches : int;
  st_dropped : int;
  st_tenants : int;
}

let stats t =
  let per_shard =
    Array.to_list
      (Array.map
         (fun sh ->
           {
             ss_shard = sh.sh_id;
             ss_items = sh.sh_items;
             ss_events = sh.sh_events;
             ss_batches = sh.sh_batches;
             ss_dropped = sh.sh_dropped;
             ss_max_queue_depth = sh.sh_max_queue_depth;
             ss_tenants = Hashtbl.length sh.sh_tenants;
           })
         t.shard_arr)
  in
  List.fold_left
    (fun acc ss ->
      {
        acc with
        st_items = acc.st_items + ss.ss_items;
        st_events = acc.st_events + ss.ss_events;
        st_batches = acc.st_batches + ss.ss_batches;
        st_dropped = acc.st_dropped + ss.ss_dropped;
        st_tenants = acc.st_tenants + ss.ss_tenants;
      })
    {
      st_shards = per_shard;
      st_items = 0;
      st_events = 0;
      st_batches = 0;
      st_dropped = 0;
      st_tenants = 0;
    }
    per_shard
