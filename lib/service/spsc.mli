(** Bounded single-producer single-consumer batch queue — the channel
    between the engine's ingest front and one shard consumer.

    The transfer unit is one batch value: one mutex round-trip
    amortised over the whole batch.  Capacity is counted in
    batches.  The queue is a fixed ring, so {!push} allocates nothing;
    it moves the batch value itself, never a copy.

    {b Ownership.}  A pushed batch belongs to the queue until {!pop}
    hands it to the consumer; a dropped batch stays with the producer.
    The queue keeps no reference to a batch once it is popped (or
    discarded by {!abort}): free slots hold the [empty] value given to
    {!create}.  The engine uses this to recycle column batches — the
    consumer hands each processed batch back to the producer through a
    separate synchronised free list, so a shard owns at most
    [capacity + 2] batches (the queued ones, the one being filled, the
    one being drained).

    Backpressure policy is chosen per {!push}: blocking (default;
    deterministic, the producer runs at the slowest consumer's pace) or
    dropping (the batch is refused and stays with the producer, which
    charges its items to their tenants — read through
    [Engine.stats]).

    {b Wakeups.}  The consumer parks only on an empty queue, the
    producer only on a full one, and each side signals the other only
    across the half-capacity watermark: {!push} wakes a parked consumer
    once the queue holds [2 * length >= capacity] batches (in dropping
    mode, on every push that lands), and {!pop} wakes a parked producer
    once the queue has drained to [2 * length <= capacity].  A parked
    consumer therefore waits while fewer than half the slots are
    filled; {!close} and {!abort} wake every waiter at once.  Neither
    side spins. *)

type 'b t

val create : capacity:int -> empty:'b -> 'b t
(** [capacity] > 0, in batches.  [empty] fills the slots that hold no
    queued batch. *)

type push_result = Pushed | Dropped

val push : 'b t -> drop_when_full:bool -> 'b -> push_result
(** Producer side: queue a batch.  With
    [drop_when_full:false], blocks while the queue is at capacity
    (until the consumer has drained it to half, or the queue is
    aborted).  With [drop_when_full:true], never blocks: a full queue
    drops the batch.  After {!abort}, every push drops —
    a dead consumer must not wedge the producer.  A [Dropped] batch was
    not taken: the producer still owns it and may refill it.  Raises
    [Invalid_argument] after {!close}. *)

val close : 'b t -> unit
(** Producer side, end of stream: wakes a parked consumer whatever the
    depth; it drains what is queued, then {!pop} returns [None]. *)

val abort : 'b t -> unit
(** Consumer side, failure path: discard every queued batch, wake
    everyone, make every subsequent push drop and every pop return
    [None]. *)

val pop : 'b t -> 'b option
(** Consumer side: the oldest batch; [None] once closed-and-drained (or
    aborted).  On an empty queue it
    parks until a push crosses the watermark (see {b Wakeups}), or
    until {!close} or {!abort}. *)

val length : 'b t -> int
(** Batches currently queued. *)

val max_depth : 'b t -> int
(** Peak queued batches — how close the producer came to blocking. *)
