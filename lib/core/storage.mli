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
  ?metrics:Pift_obs.Registry.t -> unit -> t
(** [entries] defaults to 2730 (32 KiB of 12-byte entries).
    [granularity] is [None] for arbitrary ranges, or [Some r] for
    [2^r]-byte block tagging.  The per-process secondary store in main
    memory is an exact {!Store_flat} set.  With [metrics],
    [pift_storage_*] counters (lookups, primary/secondary hits,
    insertions, evictions, drops, writebacks) and an occupancy gauge
    mirror {!stats} live. *)

val insert : t -> pid:int -> Pift_util.Range.t -> unit
val remove : t -> pid:int -> Pift_util.Range.t -> unit

val lookup : t -> pid:int -> Pift_util.Range.t -> bool
(** Parallel range-overlap match; under [Lru_writeback] a primary miss
    also searches the secondary store (counted as a slow lookup) and
    promotes a hit back into the cache. *)

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
val range_count : t -> int
val ranges : t -> pid:int -> Pift_util.Range.t list

type stats = {
  lookups : int;
  hits : int;  (** primary-cache hits *)
  secondary_hits : int;  (** slow-path hits (Lru_writeback only) *)
  insertions : int;
  evictions : int;
  drops : int;  (** entries lost under [Drop] *)
  writebacks : int;
  max_occupancy : int;
}

val stats : t -> stats
