(** Flight recorder: a fixed-capacity ring buffer of timestamped
    structured events.

    Each pool worker slot owns one ring and is its only writer, so
    recording needs no locks; the hot path is a clock read plus a few
    array stores into preallocated slots (no per-event allocation).
    When the ring fills, the oldest events are overwritten — the newest
    [capacity] events are always kept.  A ring created with
    [~capacity:0] accepts every call as a no-op, which is how tracing is
    disabled without branching at call sites.

    Timestamps come from one process-wide epoch (captured at module
    load) and are clamped per ring to be non-negative and non-decreasing,
    so per-slot event sequences merge onto a common, monotonic time
    axis (see {!Chrome}). *)

type kind =
  | Begin  (** span opening ([B] phase in Chrome trace terms) *)
  | End  (** span closing ([E]) *)
  | Instant  (** point marker ([i]) *)
  | Sample  (** counter sample ([C]); [value] carries the reading *)

type event = { kind : kind; name : string; ts : float; value : float }
(** [ts] is seconds since the process flight epoch. *)

type t

val default_capacity : int
(** 65536 events — enough for a full 200-cell sweep per worker slot. *)

val create : ?capacity:int -> unit -> t
(** Preallocate a ring of [capacity] slots (default
    {!default_capacity}; values [<= 0] make every recording call a
    no-op). *)

val capacity : t -> int

val now : unit -> float
(** Seconds since the flight epoch — the clock every ring stamps with. *)

val begin_ : t -> string -> unit
(** Open a span.  Pass a literal or prebuilt name: the ring stores the
    pointer, so no allocation happens here. *)

val end_ : t -> string -> unit
val instant : t -> string -> unit

val sample : t -> string -> float -> unit
(** Record a counter reading; same-named samples form a counter track. *)

val length : t -> int
(** Events currently held, [<= capacity]. *)

val dropped : t -> int
(** Events lost to wrap-around: events ever recorded minus {!length}. *)

val iter : (event -> unit) -> t -> unit
(** Oldest surviving event first. *)

val iter_balanced : (event -> unit) -> t -> unit
(** {!iter} with the span halves a wrap can strand repaired, so every
    span it yields is balanced: an [End] whose [Begin] was overwritten
    is skipped, an [End] carries the name of the span it closes, and
    spans still open when the ring stops are closed, innermost first,
    at the ring's last timestamp.  {!Chrome.json} and {!Profile.fold}
    both read rings through it. *)

val events : t -> event list
(** The held events, oldest first. *)
