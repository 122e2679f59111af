(** Hardware taint-storage model: the on-chip cache of tainted ranges of
    the paper's §3.3 (Figs. 5–6).

    Each entry holds a process ID, start and end addresses, and a valid
    bit (12 bytes per entry, so a 32 KiB memory holds ~2730 entries).
    Lookup is a parallel match in hardware; we model occupancy, hits,
    misses, and the two overflow strategies the paper discusses: LRU
    eviction to a secondary store in main memory, or simply dropping the
    entry (cheaper, but may lose sensitive flows → false negatives).

    A fixed-granularity variant ({!create} with [granularity = Some r])
    taints whole [2^r]-byte blocks instead of arbitrary ranges — smaller
    entries and simpler compare logic, at the price of overtainting
    (§3.3's alternative design). *)

type eviction =
  | Lru_writeback  (** evict least-recently-used to secondary storage *)
  | Drop  (** discard — no performance cost, possible false negatives *)

type t

val create :
  ?entries:int -> ?eviction:eviction -> ?granularity:int option ->
  unit -> t
(** [entries] defaults to 2730 (32 KiB of 12-byte entries).
    [granularity] is [None] for arbitrary ranges, or [Some r] for
    [2^r]-byte block tagging.  The secondary store in main memory is
    exact: one {!Store_flat} set per pid.  A {!Store.create} store
    keeps the model's view: per pid, the bytes its valid entries and
    its secondary set hold.
    The model counts its own traffic: read {!stats} and {!occupancy}
    when a run ends (the [pift_storage_*] metrics are built from
    them). *)

val insert : t -> pid:int -> Pift_util.Range.t -> unit
val remove : t -> pid:int -> Pift_util.Range.t -> unit

val lookup : t -> pid:int -> Pift_util.Range.t -> bool
(** Parallel range-overlap match; a primary miss also searches the
    secondary store (counted as a slow lookup) and promotes the lowest
    overlapping secondary range back into the cache
    ({!Store_flat.first_overlap}: no list of the pid's ranges is
    built).  Under [Drop] a
    full cache cannot take it (counted as a drop): the range then stays
    in the secondary store, so a read never loses state.  Only
    {!context_switch} fills the secondary store under [Drop]. *)

val context_switch : t -> unit
(** Write all entries back to secondary storage (the paper's alternative
    that frees the PID field; modelled for its traffic statistics). *)

val release_pid : t -> pid:int -> unit
(** Tenant eviction: invalidate every primary entry of [pid] (occupancy
    drops accordingly) and discard its secondary set.  Unlike
    {!context_switch} nothing is written back — the state is gone, and a
    re-registered pid starts clean. *)

val occupancy : t -> int

val tainted_bytes : t -> int
(** Bytes held, summed per pid like {!Store.create}'s: two pids holding
    the same address count it twice.  O(1): read from the view. *)

val range_count : t -> int
(** Maximal ranges held, summed per pid.  O(1). *)

val ranges : t -> pid:int -> Pift_util.Range.t list
(** The pid's view as canonical maximal ranges. *)

type stats = private {
  mutable lookups : int;
  mutable hits : int;  (** primary-cache hits *)
  mutable secondary_hits : int;  (** slow-path hits *)
  mutable insertions : int;
  mutable evictions : int;
  mutable drops : int;
      (** entries a full [Drop] cache could not place (a failed
          promotion keeps its range in the secondary store) *)
  mutable writebacks : int;
  mutable max_occupancy : int;
}

val stats : t -> stats
(** A copy of the model's counters, taken now. *)

val store : t -> Store.t
(** The tracker's taint state held in this cache: [add] is {!insert},
    [overlaps] is {!lookup}, so verdicts (and possible false negatives)
    follow the eviction policy.  [dump] and [merges] raise [Failure]:
    the cache is lossy, so persisting it would silently drop state. *)
