(** Live progress view on stderr for sweeps and runs: one
    done/total/rate/ETA state, shown one of three ways.

    - On a terminal it is a frame repainted in place with ANSI cursor
      movement: the status line ([label]: done/total, rate, ETA) plus,
      when [telems] were given (the CLI's [--top]), one line per worker
      slot with events seen, snapshot-ring health and the latest
      telemetry readings.  Telemetry snapshots repaint it mid-cell.
    - Off a terminal, an {e explicitly} enabled view ([~enabled:true],
      the CLI's [--progress]) logs the status line as a plain
      newline-terminated line every 25 steps and at the end, so CI logs
      carry no escape codes.
    - Otherwise every call is a no-op.

    Everything goes to stderr, so stdout stays byte-identical whether
    the view is on or off.  {!step} and the telemetry hook are safe to
    call from any worker domain. *)

type t

val create :
  ?enabled:bool ->
  ?telems:Telemetry.t array ->
  ?rings:Flight.t array ->
  label:string ->
  total:int ->
  unit ->
  t
(** [?enabled] defaults to [Unix.isatty Unix.stderr].  [telems] give
    the live frame one per-slot line each and drive its mid-phase
    repaints (via {!Telemetry.on_snapshot}); [rings] add flight-ring
    drop counts to those lines.  [total] may be [0] (the status line
    then shows elapsed time) and set later with {!set_total}. *)

val set_total : t -> int -> unit

val step : t -> unit
(** Count one unit done; repaints at most every 0.1 s (terminal) or
    logs every 25 steps (forced, off a terminal). *)

val finish : t -> unit
(** Final frame or log line, left in scrollback.  Idempotent. *)
