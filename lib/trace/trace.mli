(** Recorded instruction streams.

    A trace is recorded once per workload execution and replayed into any
    number of trackers or statistics passes (the paper records gem5 traces
    and feeds them to the PIFT analysis code offline, §5). *)

type t

val create : unit -> t

val add : t -> Event.t -> unit
(** Append a decoded event, one that comes without its instruction (a
    trace file holds only the Fig. 5 record).  Raises [Invalid_argument]
    on a trace built by {!sink}. *)

val sink : t -> Pift_arm.Insn.t -> Event.t -> unit
(** [sink t] is the shape event producers expect ({!Pift_machine.Cpu}):
    it appends the event and keeps its instruction beside it, for the
    full-DIFT baseline.  Raises [Invalid_argument] on a trace that
    already holds events appended by {!add}. *)

val length : t -> int
val get : t -> int -> Event.t

val has_insns : t -> bool
(** Every event carries its instruction: true for a trace built by
    {!sink} (or an empty one), false for a decoded one. *)

val insn : t -> int -> Pift_arm.Insn.t
(** The instruction of event [i].  Raises [Invalid_argument] out of
    bounds or when not {!has_insns}. *)

val iter : (Event.t -> unit) -> t -> unit
(** In recording order. *)

val replay : t -> (Event.t -> unit) list -> unit
(** Feed every event to every consumer, in order. *)

val loads : t -> int
(** Number of load events. *)

val stores : t -> int
(** Number of store events. *)

val pids : t -> int list
(** Distinct process IDs, sorted. *)
