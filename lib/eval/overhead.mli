(** Runtime-overhead characterisation on the LGRoot trace — Figs. 14–19.

    All functions replay a single recording, so the whole §5.2 study runs
    off one execution of the malware. *)

type point = {
  ni : int;
  nt : int;
  untaint : bool;
  max_tainted_bytes : int;  (** Fig. 14 / 15 / 18 metric *)
  max_ranges : int;  (** Fig. 17 / 19 metric *)
  taint_ops : int;
  untaint_ops : int;  (** Fig. 16 metric: taint + untaint over time *)
}

val measure : ?untaint:bool -> Recorded.t -> ni:int -> nt:int -> point

val grid :
  ?nis:int list ->
  ?nts:int list ->
  ?rings:Pift_obs.Flight.t array ->
  ?jobs:int ->
  Recorded.t ->
  point list
(** Fig. 14 and Fig. 17 sweeps (defaults NI=1..20 × NT=1..10), one
    point per distinct (ni, nt), ascending.  Each NI band
    ({!Recorded.ni_bands}) is one work item on a [Pift_par] pool of
    [jobs] (default 1) domains, walking its band with
    {!Recorded.replay_grid}, so the recording is replayed once per
    rectangle of the grid, not once per point; the point list is
    identical for every [jobs] value.  [rings] (one per worker slot)
    stamps a ["grid(lo-hi)"] span per walk, holding
    ["max_tainted_bytes"]/["max_ranges"] samples per point. *)

val series :
  Recorded.t ->
  ni:int ->
  nt:int ->
  (int * int) list * (int * int) list
(** Fig. 15 and Fig. 16: (tainted-bytes-over-time,
    cumulative-operations-over-time) samples for one parameter pair,
    time being the global instruction sequence number.  Built by
    walking the recording ({!Recorded.walk}) through a tracker and
    reading its counters after each row and marker; each curve is
    downsampled to at most 72 points. *)

val untaint_effect :
  ?rings:Pift_obs.Flight.t array ->
  ?jobs:int ->
  Recorded.t ->
  nis:int list ->
  nt:int ->
  (int * point * point) list
(** Fig. 18/19: per distinct NI, ascending, the (untainting-on,
    untainting-off) pair, both walked over [nis] × [[nt]] as in
    {!grid}.  [jobs] and [rings]
    as in {!grid} (span names ["untaint-on(lo-hi,nt)"] and
    ["untaint-off(lo-hi,nt)"]). *)

val render_grid :
  title:string ->
  metric:(point -> int) ->
  point list ->
  Format.formatter ->
  unit ->
  unit

val render_series :
  title:string ->
  log_scale:bool ->
  (string * (int * int) list) list ->
  Format.formatter ->
  unit ->
  unit
