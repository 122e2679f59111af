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
    fold is lossless: {!iter}, {!get} and {!to_seq} rebuild every event
    added. *)

type t

val create : unit -> t

val add : t -> Event.t -> unit
(** Append a decoded event, one that comes without its instruction (a
    trace file holds only the Fig. 5 record).  Raises [Invalid_argument]
    on a trace built by {!sink}. *)

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

val get : t -> int -> Event.t
(** Event [i], rebuilt by walking the rows up to it: linear in [i], so
    walk a whole trace with {!iter} or {!to_seq}. *)

val has_insns : t -> bool
(** Every event carries its instruction: true for a trace built by
    {!sink} (or an empty one), false for a decoded one. *)

val insn : t -> int -> Pift_arm.Insn.t
(** The instruction of event [i].  Raises [Invalid_argument] out of
    bounds or when not {!has_insns}. *)

val iter : (Event.t -> unit) -> t -> unit
(** Every event in recording order, rebuilt from the rows. *)

val to_seq : t -> Event.t Seq.t
(** {!iter} as a pull stream. *)

val rows : t -> int
(** Number of rows. *)

val iter_rows : (int array -> int -> unit) -> t -> unit
(** [iter_rows f t] calls [f rows o] for every row in recording order:
    the row is the {!Row.width} ints from [o] of [rows].  A [tag_other]
    row stands for {!Row.count} events; a load or store row's range is
    {!range}. *)

val range : t -> int array -> int -> Pift_util.Range.t
(** The interned range of the load or store row at [o] of [rows], as
    handed to {!iter_rows}'s [f]. *)

val loads : t -> int
(** Number of load events. *)

val stores : t -> int
(** Number of store events. *)

val pids : t -> int list
(** Distinct process IDs, sorted. *)
