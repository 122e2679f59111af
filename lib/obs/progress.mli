(** Live progress view on stderr for sweeps and runs: one
    done/total/rate/ETA status line, shown one of three ways.

    - On a terminal it is repainted in place ([label]: done/total,
      rate, ETA).
    - Off a terminal, an {e explicitly} enabled view ([~enabled:true],
      the CLI's [--progress]) logs the status line as a plain
      newline-terminated line every 25 steps and at the end, so CI logs
      carry no escape codes.
    - Otherwise every call is a no-op.

    Everything goes to stderr, so stdout stays byte-identical whether
    the view is on or off.  {!step} is safe to call from any worker
    domain. *)

type t

val create : ?enabled:bool -> label:string -> total:int -> unit -> t
(** [?enabled] defaults to [Unix.isatty Unix.stderr].  [total] may be
    [0] (the status line then shows elapsed time) and set later with
    {!set_total}. *)

val set_total : t -> int -> unit

val step : t -> unit
(** Count one unit done; repaints at most every 0.1 s (terminal) or
    logs every 25 steps (forced, off a terminal). *)

val finish : t -> unit
(** Final status line, left in scrollback.  Idempotent. *)
