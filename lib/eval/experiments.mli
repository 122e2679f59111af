(** Per-experiment drivers, keyed by the paper's table/figure ids.

    Each experiment regenerates one artefact of the paper's evaluation
    section and prints it in a terminal-friendly form.  [run_all] is what
    the bench harness and [bench_output.txt] are built from. *)

val all : (string * string) list
(** (id, description) pairs, in paper order: [fig2], [table1], [fig10],
    [fig11], [malware], [fig12], [fig13], [fig14], [fig15], [fig16],
    [fig17], [fig18], [fig19], plus the extensions [hw],
    [ablation-storage], [ablation-granularity], [summary]. *)

val run :
  ?rings:Pift_obs.Flight.t array ->
  ?on_cell:(int -> int -> unit) ->
  ?jobs:int ->
  string ->
  Format.formatter ->
  unit
(** Raises [Failure] on an unknown id.  [jobs] (default 1) sizes the
    [Pift_par] domain pool behind the grid-sweep experiments (fig11,
    fig14, fig17, fig18, fig19); every experiment's output is identical
    for every [jobs] value and with tracing on or off.  [rings] (one
    flight-recorder ring per worker slot) gives those experiments
    per-cell spans and counter samples; [on_cell] reports fig11 grid
    progress (see {!Accuracy.sweep}). *)

val run_all :
  ?rings:Pift_obs.Flight.t array -> ?jobs:int -> Format.formatter -> unit

val lgroot_recording : unit -> Recorded.t
(** The shared LGRoot execution trace (recorded once per process). *)
