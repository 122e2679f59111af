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
    streamed event-at-a-time, never materialised.  {!close} (or {!run})
    releases the channel. *)

val close : source -> unit

val to_engine_item : source -> Pift_eval.Recorded.item -> Engine.item
(** Remap one recorded item onto the source's engine pid.  An event
    whose pid is not in [[src_orig_pid, src_orig_pid + 2{^20})] — the
    block {!tenant_pid} spaces tenants by — would land in another
    tenant's taint state: it raises [Failure] naming the source (its
    path, else its name), the item number ({!cursor}, which {!merge}
    has already advanced past the item) and the pid. *)

val merge : source list -> Engine.stream
(** Deterministic interleave: always emit the head with the smallest
    [(seq, source index)] — ties on seq go to the earlier-listed
    source.  Per-source item order is preserved, so each tenant sees
    exactly its own stream in order; the cross-tenant schedule is fixed
    by the inputs alone, never by thread timing.

    The live heads sit in a binary min-heap, so each item costs
    O(log n) in the number of live sources.  The first pull reads every
    source's head in index order; each later pull first refills only
    the source emitted last, and a source whose [src_next] returned
    [None] is never pulled again.  The emitted sequence, the order of
    [src_next] calls and every {!cursor} are those of a linear scan over
    all heads. *)

val cursor : source -> int
(** Ingest cursor: items emitted to the engine so far (plus any
    {!skip}ped on resume).  Counted at merge-emission time — the one
    prefetched head {!merge} may hold is {e not} included, so after an
    idle {!Engine.run} the cursor names exactly the processed prefix.
    Recorded per source in every snapshot. *)

val skip : source -> int -> unit
(** Resume from a snapshot: discard the first [n] items of a freshly
    opened source (the prefix a previous run consumed) and set its
    cursor to [n].  Fails if the source ends early — the trace changed
    since the snapshot was taken. *)

val run :
  ?segment:int -> ?on_idle:(unit -> unit) -> Engine.t -> source list -> unit
(** Register each source's tenant (named after the trace), then
    {!Engine.run} the merged stream.  Sources are closed on the way
    out, also on failure.

    With [segment:n], the stream is drained in budgets of [n] items:
    after each segment the engine is fully idle (pool joined, queues
    drained) and [on_idle] is called — the snapshot hook.  [on_idle]
    also runs once after the final (possibly short) segment, so a
    snapshot of the completed state always exists; without [segment]
    it runs once at end of stream.  Cursors observed inside [on_idle]
    name exactly the processed prefix of every source. *)
