(** Off-critical-path tracking (§1): "the reduction in the amount of data
    means it is possible to move information-flow tracking off the
    critical path in the architecture, such that the load–store stream is
    buffered for delayed processing at a more convenient time (while
    trading prevention for detection, of course)."

    This module models that design: memory events are appended to a
    bounded hardware buffer and the tracker drains it in batches (e.g. at
    quiet moments).  Two consequences the paper trades on are made
    measurable:

    - {e detection, not prevention}: a sink check only sees taint state up
      to the last drain, so {!check} forces a drain first (the kernel
      module would stall the query until the buffer is consumed);
    - {e loss under pressure}: if events arrive faster than they are
      drained and the buffer overflows, the oldest events are dropped —
      possible false negatives, never false positives. *)

type t

val create :
  ?policy:Policy.t -> ?buffer_size:int -> ?drain_batch:int -> unit -> t
(** [buffer_size] is the hardware FIFO capacity in events (default 4096);
    [drain_batch] how many buffered events the background drain consumes
    per {!tick} (default 256). *)

val taint_source : t -> pid:int -> Pift_util.Range.t -> unit
(** Source registrations drain the buffer first (they come from software,
    which is already off the fast path). *)

val push :
  t -> load:bool -> pid:int -> seq:int -> k:int -> Pift_util.Range.t -> unit
(** Append a load ([load]) or store to the buffer — the front end
    forwards only loads and stores, Fig. 5 — as its ints and range: the
    buffer is a ring of those, so it boxes nothing per access.
    Overflow drops the oldest buffered access. *)

val tick : t -> unit
(** Background drain opportunity: consume up to [drain_batch] events. *)

val check : t -> pid:int -> Pift_util.Range.t -> bool
(** Sink check: drains everything buffered, then queries. *)

val dropped : t -> int
(** Events lost to overflow so far. *)

val buffered : t -> int
(** Events currently waiting. *)

val tracker : t -> Tracker.t
(** The underlying Algorithm 1 state (for statistics). *)
