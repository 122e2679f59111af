(** Recorded instruction streams.

    A trace is recorded once per workload execution and replayed into any
    number of trackers or statistics passes (the paper records gem5 traces
    and feeds them to the PIFT analysis code offline, §5).

    A trace stores {!Row} rows, not events: ints only, in fixed-size
    chunks.  A load or store is one row whose range is interned, so
    every access to the same [(lo, len)] shares one {!Pift_util.Range.t}
    (column 4 holds its index in the trace's range table).  A run of
    non-memory events is one counted row: an [Other] event joins the
    last row only when that row is a [tag_other] row of the same pid and
    the event's seq and k are each exactly one past the row's.  The
    fold is lossless: {!iter} rebuilds every event added. *)

type t

val create : unit -> t

val add : t -> int array -> int -> unit
(** [add t rows o] appends the decoded event at [o] of [rows] (a load or
    store row with its own lo and len, or a [tag_other] row of one
    instruction), without its instruction: a trace file holds only the
    Fig. 5 record.  Raises [Invalid_argument] on a trace built by
    {!sink}, or on a range {!Pift_util.Range.of_len} refuses. *)

val sink : t -> Pift_arm.Insn.t -> Event.t -> unit
(** [sink t] is the shape event producers expect ({!Pift_machine.Cpu}):
    it appends the event and keeps its instruction beside it, one per
    event, for the full-DIFT baseline.  Raises [Invalid_argument] on a
    trace that already holds events appended by {!add}. *)

val trim : t -> unit
(** Cut the last, partly filled chunk to what it holds: call it once a
    recording is complete, so a short trace does not keep a mostly
    empty chunk.  Appending afterwards still works. *)

val length : t -> int
(** Number of events (not rows). *)

val has_insns : t -> bool
(** Every event carries its instruction: true for a trace built by
    {!sink} (or an empty one), false for a decoded one. *)

val insn : t -> int -> Pift_arm.Insn.t
(** The instruction of event [i].  Raises [Invalid_argument] out of
    bounds or when not {!has_insns}. *)

val event : t -> int array -> int -> int -> Event.t
(** [event t rows o j] rebuilds event [j] (from 0) of a row handed to
    {!walk}'s [row]: a counted row holds the run that ends at its seq
    and k. *)

val iter : (Event.t -> unit) -> t -> unit
(** Every event in recording order, rebuilt: the one per-event view. *)

val iter_rows : (int array -> int -> unit) -> t -> unit
(** [iter_rows f t] calls [f rows o] for every row in recording order:
    the row is the {!Row.width} ints from [o] of [rows].  A [tag_other]
    row stands for {!Row.count} events; a load or store row's range is
    {!range}. *)

val walk :
  t ->
  marks:int array ->
  row:(int array -> int -> unit) ->
  mark:(int -> unit) ->
  unit
(** {!iter_rows} with marks: [mark i] fires for each index of the seqs
    [marks], in order, once the walk has passed [marks.(i)]: before the
    first row if it is at most 0, else after the first event whose seq
    is at least it, else at the end.  A counted row that event falls
    inside reaches [row] in parts, each a counted row of its own (a
    run's seqs and ks count up by one), in a scratch array [row] must
    not keep.  Between marks the walk costs one compare per row. *)

val range : t -> int array -> int -> Pift_util.Range.t
(** The interned range of the load or store row at [o] of [rows], as
    handed to {!iter_rows}'s [f]. *)

val loads : t -> int
(** Number of load events. *)

val stores : t -> int
(** Number of store events. *)
