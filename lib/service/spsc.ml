(* Bounded single-producer single-consumer batch queue: the link between
   the engine's ingest front (pool slot 0) and one shard consumer.  The
   unit of transfer is a batch value, so the mutex is taken once per
   batch, not per event.

   The queue is a fixed ring of [capacity] slots, so a push allocates
   nothing.  A slot that is not queued holds the [empty] value given to
   [create]: once a batch is popped (or discarded by [abort]) the queue
   no longer keeps it reachable.  What a batch is, and who reuses it
   after the consumer is done with it, is the caller's business.

   Backpressure is the producer's choice per push: block until the
   consumer frees a slot (the default, deterministic — nothing is ever
   lost, the producer just runs at the slowest shard's pace), or drop
   the batch.  A dropped batch stays with the producer, which accounts
   for its items.

   [abort] is the failure path: a consumer that dies mid-stream aborts
   its queue so the producer cannot block forever against a reader that
   will never come back — subsequent pushes drop, pops return [None],
   and the pool join re-raises the consumer's exception.

   Wakeups go by watermark, not by batch.  A side that waits records it
   in [consumer_parked] / [producer_parked]; the other side signals it
   only across half the ring: a push once the ring holds at least half
   its capacity (every push in drop mode), a pop once the ring has
   drained to at most half.  The consumer parks only on an empty ring
   and the producer only on a full one, so whoever is parked is always
   woken before the other side could need it — and [close] and [abort]
   broadcast regardless.  A parked consumer thus costs one wakeup per
   half ring of batches instead of one per batch. *)

type 'b t = {
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  empty : 'b;  (* fills every slot that holds no queued batch *)
  slots : 'b array;  (* ring of queued batches *)
  mutable head : int;  (* slot of the oldest queued batch *)
  mutable len : int;  (* queued batches *)
  mutable closed : bool;  (* producer finished *)
  mutable aborted : bool;  (* consumer died *)
  mutable max_depth : int;  (* peak queued batches *)
  mutable consumer_parked : bool;  (* waiting on [not_empty], unsignalled *)
  mutable producer_parked : bool;  (* waiting on [not_full], unsignalled *)
}

type push_result = Pushed | Dropped

let create ~capacity ~empty =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  {
    mu = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    empty;
    slots = Array.make capacity empty;
    head = 0;
    len = 0;
    closed = false;
    aborted = false;
    max_depth = 0;
    consumer_parked = false;
    producer_parked = false;
  }

let capacity t = Array.length t.slots

let push t ~drop_when_full batch =
  Mutex.lock t.mu;
  if t.closed then begin
    Mutex.unlock t.mu;
    invalid_arg "Spsc.push: queue closed"
  end;
  if (not t.aborted) && not drop_when_full then
    while t.len >= capacity t && not t.aborted do
      t.producer_parked <- true;
      Condition.wait t.not_full t.mu
    done;
  let result =
    if t.aborted || t.len >= capacity t then Dropped
    else begin
      let slot = (t.head + t.len) mod capacity t in
      t.slots.(slot) <- batch;
      t.len <- t.len + 1;
      if t.len > t.max_depth then t.max_depth <- t.len;
      if t.consumer_parked && (drop_when_full || 2 * t.len >= capacity t)
      then begin
        t.consumer_parked <- false;
        Condition.signal t.not_empty
      end;
      Pushed
    end
  in
  Mutex.unlock t.mu;
  result

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mu

(* Queued batches are discarded, not delivered: release them. *)
let abort t =
  Mutex.lock t.mu;
  t.aborted <- true;
  Array.fill t.slots 0 (capacity t) t.empty;
  t.len <- 0;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu

let pop t =
  Mutex.lock t.mu;
  let rec go () =
    if t.aborted then None
    else if t.len > 0 then begin
      let slot = t.head in
      let b = t.slots.(slot) in
      t.slots.(slot) <- t.empty;
      t.head <- (slot + 1) mod capacity t;
      t.len <- t.len - 1;
      if t.producer_parked && 2 * t.len <= capacity t then begin
        t.producer_parked <- false;
        Condition.signal t.not_full
      end;
      Some b
    end
    else if t.closed then None
    else begin
      t.consumer_parked <- true;
      Condition.wait t.not_empty t.mu;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock t.mu;
  r

let locked t f =
  Mutex.lock t.mu;
  let v = f () in
  Mutex.unlock t.mu;
  v

let length t = locked t (fun () -> t.len)
let max_depth t = locked t (fun () -> t.max_depth)
