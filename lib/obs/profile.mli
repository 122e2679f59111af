(** Overhead attribution: the Begin/End spans of per-slot flight rings
    ({!Flight}) folded into flamegraph-compatible stacks.

    The rings are the only region recorder, so a profile holds exactly
    the spans a [--trace-out] timeline shows: per-chunk, per-cell and
    per-phase accounting, not a region per call.  Each span contributes
    its *self* time — wall time minus the time of the spans inside it —
    under its semicolon-joined path (["chunk;cell"]).  Self times are
    additive: a folded stack sums to the spanned wall clock, which is
    what makes the per-subsystem percentage breakdown meaningful.

    One span walk serves both ends of a ring's life: {!fold} runs it
    over live rings, and [pift report] ({!Chrome.summarize}) runs it
    over the tracks it decodes from a trace file. *)

val phase_of : string -> string
(** A span name's phase: everything before the first ['('] or [':']
    (["cell(13,3)"] -> ["cell"], ["record:LGRoot"] -> ["record"]). *)

type span = {
  sp_name : string;  (** the name the span opened with *)
  sp_path : string;  (** {!phase_of} names, outermost first, [';']-joined *)
  sp_depth : int;  (** [0] for a top-level span *)
  sp_elapsed : float;  (** wall seconds *)
  sp_self : float;  (** [sp_elapsed] minus the spans directly inside *)
}

val spans : ((Flight.event -> unit) -> unit) -> span list
(** [spans iter] walks the balanced events [iter] yields (a ring read
    through {!Flight.iter_balanced}, or a validated trace track) and
    returns the spans they close, in completion order. *)

val rows : span list -> (string * float) list
(** (folded path, self seconds), summed by path in first-completion
    order. *)

val fold : Flight.t array -> (string * float) list
(** {!rows} of every ring's spans, slot 0's first: paths come in
    first-completion order (slot 0's, then each later slot's new
    paths), and equal paths of different slots are summed. *)
