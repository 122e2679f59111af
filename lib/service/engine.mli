(** The long-lived multi-tenant taint engine.

    One engine owns [shards] shard states, each pinned to one pool
    worker slot.  A shard holds its resident tenants — one pid, one
    private {!Pift_core.Tracker} stack (store + optional provenance
    sidecar) — plus a few plain counters and the bounded queue its
    consumer drains during a {!run}.

    {b Observation.}  Shards keep plain counters (items, events,
    batches, drops, peak queue depth) and nothing pushes them anywhere:
    {!stats} and {!snapshot_tenant} are the only reads, taken while the
    engine is idle.

    {b Queues.}  The producer does not queue item values.  Its input
    writes rows straight into a preallocated {e column batch} (a
    {!fill}): six ints per row — tag, pid, seq, k, lo, len, the Fig. 5
    record ({!Pift_trace.Row}) — with the rare non-event items kept in
    a side array at their row index.  {!Ingest.run}'s fill decodes
    [PIFTBIN1] records straight into them; {!run} copies each item of
    a {!stream} into one.

    Algorithm 1 reads nothing of a non-memory instruction but its
    count and clock, so a run of them travels as one {e counted row}:
    a non-memory event joins the batch's last row when that row is a
    non-memory row of the same pid, else it starts a row of count 1.
    Both inputs fold by this one rule, so they build identical
    batches.  Everything the engine counts stays counted in items: the
    stats, the queues' drop tallies, {!inject_fault} and
    {!Ingest.run}'s segment budgets.

    A full batch moves through the shard's {!Spsc} queue as one value;
    the consumer walks its rows in order (non-event items in place),
    hands each event row's ints straight to the tracker's per-kind
    Algorithm 1 step ({!Pift_core.Tracker.on_load}, [on_store], and
    [on_other] once per counted row) with the one {!Pift_util.Range.t}
    a load or store needs ({!Pift_trace.Row.range}, which refuses a bad
    range before the tenant is touched) — no [Pift_trace.Event.t], no
    access box — clears each side slot it consumes and hands the batch
    back through the shard's atomic free list.  Batches are made lazily
    inside {!run}, never more than
    [queue_capacity + 2] per shard (queued, filling, draining), and
    reused across runs and segments: a steady-state run allocates no
    batch and no queued item survives a minor collection.  A batch the
    dropping policy refuses stays with the producer, is charged to its
    rows' tenants and refilled; a consumer that dies keeps the batch it
    was draining and the producer makes a fresh one.

    {b Sharding.}  Pids are partitioned by contiguous {!pid_range}
    blocks:
    [shard_of pid = ((pid / pid_range) mod shards + shards) mod shards]
    with OCaml's truncating [/] and [mod], so a negative pid still lands
    on a shard in [0, shards) (it is the [ts_shard] of
    {!snapshot_tenant}).  Routing is pure arithmetic, so a pid's shard
    never changes and no cross-shard state exists.  Within a shard,
    tenants are found through a table keyed by pid, behind a one-entry
    cache of the last tenant found: the {!Ingest} schedule serves a
    tenant up to a window of seqs at a time, so the consumer hashes
    once per tenant switch.  A tenant, once created, stays resident
    for the engine's life.

    {b Determinism.}  Because every tenant owns a private tracker and
    items of one pid are routed to one shard through a FIFO queue in
    stream order, the per-tenant verdicts, origin sets, and stats after
    an interleaved run are byte-identical to replaying each tenant's
    stream in isolation — at any shard count.  The differential harness
    ([test_service], the CI serve leg) enforces this.

    {b Concurrency contract.}  {!run} is the only concurrent region:
    slot 0 produces, slots 1..shards consume, and the pool join fences
    all shard state before returning.  Every other function
    ({!register_tenant}, {!stats}, {!snapshot_tenant}, and
    {!Snapshot}'s save and restore) must be called while the engine is
    idle — between runs, from the owning domain. *)

type t

type item =
  | I_event of Pift_trace.Event.t  (** hardware fast path *)
  | I_source of { pid : int; kind : string; range : Pift_util.Range.t }
      (** in-band source registration *)
  | I_sink of { pid : int; kind : string; ranges : Pift_util.Range.t list }
      (** in-band sink query; the verdict lands in the tenant's log *)

type stream = unit -> item option
(** Pull stream of interleaved multi-tenant items ([None] = end). *)

type side =
  | S_source of { pid : int; kind : string; range : Pift_util.Range.t }
  | S_sink of { pid : int; kind : string; ranges : Pift_util.Range.t list }
(** A non-event item as it travels beside its row: the {!item}s other
    than [I_event], whose events always travel as rows. *)

type batch = {
  b_rows : int array;
      (** row [r] is the {!Pift_trace.Row} at [r * Row.width] *)
  b_side : side array;
      (** the item of each [Row.tag_item] row, at its row index; its
          length is the batch's capacity in rows *)
  mutable b_len : int;  (** rows written *)
}
(** A column batch, the unit the shard queues carry.  A row stands for
    one item, or for [n] non-memory events when it is a counted row. *)

type fill = batch -> int -> bool
(** [fill b n] writes up to [n >= 1] more rows of the stream into [b],
    from row [b.b_len] on, advancing [b_len] as it writes each one.
    Event rows carry the event, and a non-memory event folds into the
    last row by the rule above, writing no row; any other item is a
    [Row.tag_item] row with the item's pid, and the item itself, as a
    {!side}, in [b_side] at the same index.  The room is in rows, so a call may
    consume more items than [n]; it reads nothing once it has written
    [n] rows.  It returns [false] once the stream has ended — the rows
    it wrote on that call still count — and is not called again.  Rows
    written before a fill raises count too: the engine delivers them,
    as it would the items pulled before a failing pull. *)

val pid_range : int
(** [2{^20}]: the width of the contiguous pid blocks mapped to one
    shard, and of the block {!Ingest.tenant_pid} gives each tenant.
    Snapshots record it in their manifest. *)

val create :
  ?shards:int ->
  ?policy:Pift_core.Policy.t ->
  ?queue_capacity:int ->
  ?batch:int ->
  ?drop_when_full:bool ->
  ?with_origins:bool ->
  unit ->
  t
(** [shards] (default 1) sets the shard count and creates a pool of
    [shards + 1] workers (slot 0 is the ingest producer).  The pool
    spawns its [shards] domains at the first {!run_fill}, so [create]
    starts no thread: a caller that opens its trace readers after
    [create] opens them in a one-thread process, where a growing
    file-descriptor table costs no RCU wait ({!Pift_par.Pool.create}).
    An engine that never runs starts no domain at all.  [policy]
    configures every tenant tracker.  [queue_capacity]
    (default 64) bounds each shard queue in {e batches} of [batch]
    (default 128) rows.  [drop_when_full:true] switches backpressure from blocking the
    producer to dropping batches (counted per shard, surfaced in
    {!stats}, and per tenant in {!snapshot_tenant}'s [ts_dropped]).  [with_origins] threads a provenance sidecar through
    every tenant so sink verdicts carry origin sets.  Raises
    [Invalid_argument] unless [shards], [queue_capacity] and [batch]
    are positive. *)

val run_fill : t -> fill -> unit
(** Drain a stream given as a {!fill} to completion: route every row to
    its pid's shard, push batches through the bounded queues, process
    them on the shard consumers.  The producer lets each fill call
    write straight into the batch of the shard the previous row went
    to, then moves any row of another shard to that shard's batch, so
    each shard's rows, and its batch boundaries, follow stream order.
    Fresh queues per run; on any failure (producer or consumer) the
    queues are closed/aborted so no domain wedges, and the first
    exception re-raises here after all workers drain.  Tenants are
    created on first touch and survive across runs.
    Items the dropping policy discards (the items a refused batch's
    rows stand for) are added to their tenants' [ts_dropped] and their
    shards' [ss_dropped] once the workers have joined (creating the
    tenant if none is resident). *)

val run : t -> stream -> unit
(** {!run_fill} over a fill that pulls [stream] one item at a time and
    folds non-memory events as {!Ingest.fill} does — for the recorder,
    the tests and item-at-a-time callers.  [stream] is not pulled again
    once it returns [None]. *)

val shutdown : t -> unit
(** Join the pool domains, if a run spawned them.  Idempotent; {!run}
    refuses afterwards (idle-time reads still work). *)

val with_engine :
  ?shards:int ->
  ?policy:Pift_core.Policy.t ->
  ?queue_capacity:int ->
  ?batch:int ->
  ?drop_when_full:bool ->
  ?with_origins:bool ->
  (t -> 'a) ->
  'a
(** [create], run [f], and {!shutdown} (also on exception).  [f]
    starts before the engine has spawned any domain: open readers
    there, before the first run. *)

(** {1 Tenants}

    Engine-idle only (see the concurrency contract above). *)

val register_tenant : t -> pid:int -> ?name:string -> unit -> unit
(** Pre-create (or rename) the tenant for [pid].  Tenants are otherwise
    auto-created on first touch with name ["pid-<pid>"]. *)

type verdict = {
  v_kind : string;
  v_flagged : bool;
  v_origins : string list;  (** sorted; [[]] without [with_origins] *)
}

type tenant_snapshot = {
  ts_pid : int;
  ts_name : string;
  ts_shard : int;
  ts_verdicts : verdict list;  (** in-band sink verdicts, stream order *)
  ts_stats : Pift_core.Tracker.stats;
  ts_tainted_bytes : int;  (** live, not peak *)
  ts_ranges : int;
  ts_dropped : int;
      (** items of this tenant the dropping policy discarded, summed over
          runs; each is a possible false negative.  Not persisted: a
          restored tenant starts again from 0. *)
}

val snapshot_tenant : t -> pid:int -> tenant_snapshot option

val tenants : t -> int list
(** Resident pids, sorted. *)

(** {1 Durable persistence}

    Engine-idle only.  {!tenant_persisted} is the full taint stack of
    one tenant — name, in-band verdict log, and the tracker's
    {!Pift_core.Tracker.persisted} state (store intervals, windows,
    stats and peaks, provenance origin sets) — as plain data;
    {!Snapshot} encodes it to the on-disk [PIFTSNAP1] format. *)

type tenant_persisted = {
  tp_pid : int;
  tp_name : string;
  tp_verdicts : verdict list;  (** stream order *)
  tp_state : Pift_core.Tracker.persisted;
}

val persist_tenant : t -> pid:int -> tenant_persisted option

val persist_tenants : t -> tenant_persisted list
(** Every resident tenant, sorted by pid — deterministic, identical
    engine states persist identically at any shard count. *)

val restore_tenant : t -> tenant_persisted -> unit
(** Recreate a tenant from persisted state: same name, verdict log,
    and tracker behaviour as the persisted one.  The tenant lands on
    whatever shard the {e current} config routes its pid to, so a
    snapshot restores cleanly into an engine with a different shard
    count.  Raises [Invalid_argument] if the pid is already
    resident. *)

(** {1 Fault injection}

    Test hook for crash-recovery suites. *)

exception Injected_fault of int
(** Carries the faulting shard id. *)

val inject_fault : t -> shard:int -> after_items:int -> unit
(** Arm (engine-idle) a one-shot fault: during the next {!run}, the
    consumer of [shard] raises {!Injected_fault} after processing
    [after_items] more items.  A fault that lands inside a counted row
    processes the row's first items, with the tracker's clock at the
    row's seq.  This drives the production failure path
    — the dying consumer aborts its queue so the producer cannot block
    against it, every queue closes, and {!run} re-raises the fault
    after the pool drains.  The engine survives: idle-time calls and
    further runs still work, exactly like any consumer death. *)

type shard_stats = {
  ss_shard : int;
  ss_items : int;
  ss_events : int;
  ss_batches : int;
  ss_dropped : int;  (** items lost to the dropping policy, all runs *)
  ss_max_queue_depth : int;  (** peak queued batches, all runs *)
  ss_tenants : int;
}

type stats = {
  st_shards : shard_stats list;  (** by shard id *)
  st_items : int;
  st_events : int;
  st_batches : int;
  st_dropped : int;
  st_tenants : int;
}

val stats : t -> stats

(** {1 Introspection} *)

val shards : t -> int
val policy : t -> Pift_core.Policy.t
val with_origins : t -> bool
