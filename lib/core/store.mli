(** The tracker's taint state R.

    Algorithm 1 is defined over an abstract tainted-range state R; the
    software model backs it with one exact, unbounded {!Store_flat}
    interval set per process ({!create}), while the hardware model backs
    it with the {!Storage} range cache (bounded, lossy under the drop
    policy; [Storage.store]).  The tracker is written once against this
    record of operations; it stays a record because benchmark harnesses
    build their own (timing shims substitute into it field by field).
    The store
    pushes nothing to observers: callers read [tainted_bytes],
    [range_count] and [merges] when a run ends. *)

type t = {
  add : pid:int -> Pift_util.Range.t -> unit;
  remove : pid:int -> Pift_util.Range.t -> unit;
  overlaps : pid:int -> Pift_util.Range.t -> bool;
  tainted_bytes : unit -> int;  (** across all processes *)
  range_count : unit -> int;  (** across all processes *)
  ranges : pid:int -> Pift_util.Range.t list;
  release_pid : pid:int -> unit;
      (** Tenant eviction: drop every range held for the pid and fold
          its contribution out of [tainted_bytes] / [range_count].  A
          pid never seen is a no-op; a released pid behaves exactly like
          a fresh one. *)
  dump : unit -> (int * Pift_util.Range.t list) list;
      (** Snapshot extraction: every pid with live taint, sorted by pid,
          each with its canonical coalesced range list — deterministic
          across Hashtbl orders.  Replaying [add] over a
          dump into a fresh store reproduces the original semantically
          (same [overlaps]/[ranges]/counters).  Raises [Failure] on
          [Storage.store] stores: the range cache is lossy, so
          persisting it would silently drop state. *)
  merges : unit -> int;
      (** [add]s that did not raise [range_count]: coalesced into, or
          covered by, ranges already held.  Raises [Failure] on
          [Storage.store] stores, which do not count them. *)
}

val create : unit -> t
(** Exact per-process taint state — the software reference the paper's
    trace-driven evaluation uses: one {!Store_flat} set per PID, proven
    equal to a per-byte oracle by the differential property suite in
    [test/].

    Read paths ([overlaps], [ranges]) are observably pure: querying a
    PID the store has never seen allocates nothing and leaves
    [range_count] / memory untouched.  [tainted_bytes] and
    [range_count] are O(1) — maintained per-op from the touched set's
    own counters, never by folding over every process.

    The store caches the last PID it touched together with that PID's
    set (or the fact that it has none), so [add], [remove] and
    [overlaps] on the same PID as the previous call find the set
    without hashing or allocating.  [release_pid] of the cached PID
    empties the cache entry; nothing else can make it stale.  Reads
    update the cache too (two separate fields), so a store, reads
    included, belongs to one domain at a time: two domains querying
    it at once could pair one PID with another's set. *)
