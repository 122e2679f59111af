(** Ingest front: turn recordings and trace files into tenant sources,
    interleave them deterministically, and feed the engine.

    A {!source} binds one trace stream to one engine pid.  Pids come
    from {!tenant_pid}, which places tenant [i] at the start of its own
    [pid_range] block so the engine's range partitioning spreads
    tenants round-robin across shards.  Events are remapped into the
    tenant's block preserving their offset from the recorded main pid,
    so forked child processes stay distinct. *)

type source = {
  src_name : string;
  src_path : string option;  (** trace file, [None] for in-memory *)
  src_pid : int;  (** pid the engine sees *)
  src_orig_pid : int;  (** pid recorded in the trace *)
  src_next : unit -> Pift_eval.Recorded.item option;
  src_close : unit -> unit;
  mutable src_emitted : int;  (** read via {!cursor} *)
}

val tenant_pid : ?pid_range:int -> int -> int
(** [(i + 1) * pid_range] (default [pid_range] matches
    {!Engine.create}): the engine pid for tenant index [i >= 0]. *)

val of_recorded : pid:int -> Pift_eval.Recorded.t -> source
(** In-memory recording as a source (no close needed). *)

val of_file : pid:int -> string -> source
(** Open [path] with {!Pift_eval.Trace_io.open_reader} — text or binary,
    streamed record-at-a-time, never materialised.  [src_next] is
    {!Pift_eval.Trace_io.read_item} on the reader; {!fill} and {!skip}
    read its rows directly.  {!close} (or {!run}) releases the
    channel. *)

val close : source -> unit

val to_engine_item : source -> Pift_eval.Recorded.item -> Engine.item
(** Remap one recorded item onto the source's engine pid.  An event
    whose pid is not in [[src_orig_pid, src_orig_pid + 2{^20})] — the
    block {!tenant_pid} spaces tenants by — would land in another
    tenant's taint state: it raises [Failure] naming the source (its
    path, else its name), the item number ({!cursor}, which {!fill} and
    {!merge} have already advanced past the item) and the pid. *)

val window_bits : int
(** [12]: the schedule orders heads by [seq asr window_bits], so one
    window spans 4,096 seqs. *)

(** {1 The window schedule}

    One schedule decides the order in which every consumer of several
    sources sees their items: {!fill}, which {!run} drains, and
    {!merge}, its per-item view.  It always emits the head with the
    smallest [(seq asr window_bits, source index)].  A source therefore
    runs on for up to a window of seqs before the next one takes over,
    and ties on the window go to the earlier-listed source.  Per-source
    item order is preserved, so each tenant sees exactly its own stream
    in order; the cross-tenant schedule is fixed by the inputs alone,
    never by thread timing, and no tenant's state depends on it.

    Each round serves the smallest head window over the sources in
    index order, so a pick costs O(1) and a round one pass over the
    heads.  The first pick reads every source's head in index order;
    each later one first reads the next record of the source emitted
    last, and a source whose stream ended is never read again.  The
    emitted sequence, the order of the reads and every {!cursor} are
    those of a linear scan over all heads for the smallest key, so
    fresh sources {!skip}ped to the cursors after any emission continue
    the uninterrupted schedule. *)

val fill : source list -> Engine.fill
(** The schedule as an {!Engine.fill}: each call writes up to its room
    of rows into the engine's batch.  A source opened by {!of_file} is
    decoded straight into the batch rows ({!Pift_eval.Trace_io.read_row})
    while its [src_next] is still the one {!of_file} made; any other —
    {!of_recorded}, a hand-built record, a copy with a wrapped
    [src_next] — is pulled through [src_next], one item per row.  Along
    the way each event row's pid is remapped into its tenant's block as
    {!to_engine_item} does, with the same refusal, and a marker's item
    goes into the batch's side array.  A non-memory event whose engine
    pid is that of the batch's last row, itself a counted non-memory
    row, joins that row ({!Pift_trace.Row.fold}) instead of taking one
    of its own — the rule {!Engine.run} folds its stream by.  Once a
    pick has emitted a source's head, its next records go straight into
    the batch while they stay in the round's window; the first one past
    it is held as the source's head.  The room counts rows, not items:
    a call decodes no record once it has written its room, so a run
    that stops after a full call has read nothing it did not emit. *)

val merge : source list -> Engine.stream
(** The schedule as a pull stream, one item per pull: each source is
    read through its [src_next] and each item remapped by
    {!to_engine_item}.  It emits the items {!fill} writes, in the same
    order, with the same cursors after each; a counted row of {!fill}
    stands for that many consecutive items of the stream. *)

val cursor : source -> int
(** Ingest cursor: items emitted to the engine so far (plus any
    {!skip}ped on resume).  Counted at emission time — the one
    prefetched head the schedule may hold is {e not} included, so after
    an idle {!Engine.run_fill} the cursor names exactly the processed
    prefix.
    Recorded per source in every snapshot.  Any vector of cursors is a
    valid resume point: tenants share no state, so a snapshot need not
    cut the stream at a window boundary. *)

val skip : source -> int -> unit
(** Resume from a snapshot: discard the first [n] items of a freshly
    opened source (the prefix a previous run consumed) and set its
    cursor to [n].  The records are read as {!fill} reads them, a file
    source's into one scratch row.  Fails if the source ends early —
    the trace changed since the snapshot was taken. *)

val run :
  ?segment:int -> ?on_idle:(unit -> unit) -> Engine.t -> source list -> unit
(** Register each source's tenant (named after the trace), then
    {!Engine.run_fill} the sources' {!fill}.  Sources are closed on the
    way out, also on failure.

    With [segment:n], the stream is drained in budgets of [n] items
    (not rows: a counted row never reaches past a budget):
    after each segment the engine is fully idle (pool joined, queues
    drained) and [on_idle] is called — the snapshot hook.  [on_idle]
    also runs once after the final (possibly short) segment, so a
    snapshot of the completed state always exists; without [segment]
    it runs once at end of stream.  Cursors observed inside [on_idle]
    name exactly the processed prefix of every source. *)
