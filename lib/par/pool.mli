(** Fixed-size domain pool for embarrassingly parallel evaluation work.

    The pool spawns [jobs - 1] worker domains once, at its first job
    ({!run_job}, {!map_slots} and the rest), not at {!create}; the
    calling domain is worker 0 and always participates, so [jobs = 1]
    never spawns a domain and runs everything inline — the serial and
    parallel code paths are the same code.

    Work is distributed by chunked self-scheduling: workers pull chunk
    indices from an atomic counter, so an expensive item (a high-NI
    grid column, say) never stalls the others behind a static partition.
    Results are always slotted by input index, never by completion
    order — [map pool ~f xs] equals [Array.map f xs] element for
    element, whatever the schedule.  Determinism of the *result* is the
    caller's to keep: [f] must not mutate shared state, or must confine
    mutation to per-worker structures (see [map_slots]). *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs] defaults to. *)

val create : ?jobs:int -> ?rings:Pift_obs.Flight.t array -> unit -> t
(** A pool of [jobs] workers (default {!default_jobs}, clamped to at
    least 1).  It spawns no domain: the first job spawns [jobs - 1],
    which then wait between jobs until {!shutdown}.  Until then the
    process keeps one thread, so the caller can open files first: on
    Linux, every growth of a shared file-descriptor table (at 64, 128,
    256, ... open fds) waits for an RCU grace period, milliseconds
    each.

    [?rings] attaches one flight-recorder ring per worker slot (index =
    slot); when present, [map_slots] stamps a ["chunk"] span around each
    claimed chunk on the claiming worker's ring, so a merged timeline
    shows the actual schedule and a folded profile ({!Pift_obs.Profile.fold})
    nests per-item spans under ["chunk"].  Slots beyond the array's
    length (and the default [[||]]) record nothing. *)

val jobs : t -> int
(** Worker count, including the calling domain (slot 0). *)

val shutdown : t -> unit
(** Join the worker domains spawned so far (none if no job ran).
    Idempotent; a later {!run_job} (or [map_slots] over a non-empty
    array) raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> ?rings:Pift_obs.Flight.t array -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] (also on exception). *)

val run_job : t -> (worker:int -> unit) -> unit
(** The raw primitive beneath [map_slots]: publish one job that every
    worker — the caller included, as slot 0 — runs {e exactly once},
    then join the pool and re-raise the first failure (after all
    workers have drained, so no worker is still inside the job when it
    propagates).  Unlike [map_slots] there is no work-stealing cursor:
    each slot gets exactly one call, which is what cooperating
    long-lived roles need (e.g. the service engine runs one producer on
    slot 0 and one shard consumer per remaining slot).  At most one job
    is ever in flight per pool; with [jobs = 1] the job runs inline on
    the caller. *)

val map_slots :
  t -> ?chunk:int -> f:(worker:int -> int -> 'a -> 'b) -> 'a array -> 'b array
(** The primitive: [f ~worker i x] computes the result for input index
    [i], on worker slot [worker] (in [0 .. jobs-1]).  The slot index
    lets callers keep per-worker accumulators (flight rings, telemetry,
    scratch buffers) without locking the hot path.  [chunk] is the
    number of consecutive indices claimed per scheduling step (default
    1 — right for coarse items like grid-cell replays).  Results land
    at their input index.  If any [f] raises, the first exception (in
    completion order) is re-raised in the caller after all workers have
    drained. *)

val map : t -> ?chunk:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [map_slots] without the bookkeeping: order-preserving parallel
    [Array.map]. *)

val map_reduce :
  t ->
  ?chunk:int ->
  map:('a -> 'b) ->
  combine:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Parallel map, then a *sequential* left fold in input-index order —
    the fold order is fixed so non-commutative [combine]s still give
    deterministic results. *)
