(** Bounded single-producer single-consumer batch queue — the channel
    between the engine's ingest front and one shard consumer.

    The transfer unit is a batch (array of items): one mutex round-trip
    amortised over the whole batch.  Capacity is counted in batches.

    Backpressure policy is chosen per {!push}: blocking (default;
    deterministic, the producer runs at the slowest consumer's pace) or
    dropping (the batch is discarded and its {e items} counted in
    {!dropped} — folded into the shard's counters and read through
    [Engine.stats]). *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** [capacity] > 0, in batches. *)

type push_result = Pushed | Dropped

val push : 'a t -> drop_when_full:bool -> 'a array -> push_result
(** Producer side.  With [drop_when_full:false], blocks while the queue
    is at capacity (until the consumer pops, or the queue is aborted).
    With [drop_when_full:true], never blocks: a full queue drops the
    batch.  After {!abort}, every push drops — a dead consumer must not
    wedge the producer.  Raises [Invalid_argument] after {!close}. *)

val close : 'a t -> unit
(** Producer side, end of stream: the consumer drains what is queued,
    then {!pop} returns [None]. *)

val abort : 'a t -> unit
(** Consumer side, failure path: wake everyone, make every subsequent
    push drop and every pop return [None]. *)

val pop : 'a t -> 'a array option
(** Consumer side: blocks until a batch, [None] once closed-and-drained
    (or aborted). *)

val length : 'a t -> int
(** Batches currently queued. *)

val dropped : 'a t -> int
(** Items discarded by non-blocking pushes (and pushes after abort). *)

val max_depth : 'a t -> int
(** Peak queued batches — how close the producer came to blocking. *)
