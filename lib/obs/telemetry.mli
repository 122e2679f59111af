(** Continuous telemetry: a bounded ring of periodic snapshots taken
    while a run is in flight.

    A telemetry instance holds named {e sources} — closures over live
    tracker/store/storage state.  The instrumented hot path calls
    {!bump} once per event; every [every] events the instance reads all
    sources into a snapshot.
    When the ring fills, the oldest snapshots are overwritten and
    counted by {!dropped}; a ring created with [~capacity:0] accepts
    every call as a no-op — recording is off, the [Flight] convention.

    One instance per pool worker slot, single writer, no locks; merge
    with {!merged}/{!write_jsonl} after the parallel region.  Nothing
    here ever touches stdout, so runs are byte-identical with telemetry
    on or off. *)

type snapshot = {
  sn_seq : int;  (** snapshots taken before this one *)
  sn_ts : float;  (** seconds since the flight epoch ({!Flight.now}) *)
  sn_events : int;  (** bumps seen when the snapshot was taken *)
  sn_values : (string * float) list;
}

type t

val default_capacity : int
(** 1024 snapshots. *)

val default_every : int
(** 4096 events between snapshots. *)

val create : ?capacity:int -> ?every:int -> unit -> t
(** [capacity] (default {!default_capacity}; [<= 0] = recording off)
    bounds the ring; [every] (default {!default_every}; [<= 0] disables
    the event trigger, leaving only {!sample_now}) sets the snapshot
    cadence. *)

val set_source : t -> name:string -> (unit -> float) -> unit
(** Register (or {e replace}) the source read as [name] on every
    snapshot.  Replacement matters: a sweep builds a tracker per grid
    cell against the same per-slot telemetry, and each must rebind
    ["tainted_bytes"] to its own store rather than accumulate
    duplicates. *)

val bump : t -> unit
(** Count one event; takes a snapshot when the cadence says so.  The
    per-event cost is an increment and a compare. *)

val sample_now : t -> unit
(** Take a snapshot immediately (e.g. one final reading at the end of a
    run). *)

val taken : t -> int
(** Snapshots ever taken (including overwritten ones). *)

val length : t -> int
val dropped : t -> int
(** Snapshots lost to ring wrap-around. *)

val snapshots : t -> snapshot list
(** Surviving snapshots, oldest first. *)

val merged : t array -> (int * snapshot) list
(** Per-slot snapshots interleaved on the common time axis as
    [(slot, snapshot)], ties broken by slot then sequence. *)

val write_jsonl : out_channel -> run:string -> t array -> unit
(** One header line (slot count, ring health) then one line per
    snapshot, all keyed ["pift_telemetry"] — what [Sink.classify]
    sniffs and [pift report] renders. *)

(** {2 Decoding and rendering (pift report)} *)

exception Malformed of string

type series = { se_name : string; se_points : (float * float) list }

type file = {
  f_run : string;
  f_slots : int;
  f_taken : int;
  f_dropped : int;
  f_series : series list;
}

val of_json_lines : Json.t list -> file
(** Fold the ["pift_telemetry"] lines of a report file (in file order)
    into per-metric series.  Raises {!Malformed} on structurally
    invalid lines. *)

val sparkline : ?width:int -> float list -> string
(** Eight-level Unicode sparkline, downsampled to at most [width]
    (default 44) cells. *)

val render_json_lines : Json.t list -> Format.formatter -> unit -> unit
(** {!of_json_lines}, rendered: per-metric min/max/last summary
    rows with sparklines, plus a ring-health warning when snapshots
    were dropped. *)
