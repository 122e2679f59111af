(* Bounded single-producer single-consumer batch queue: the link between
   the engine's ingest front (pool slot 0) and one shard consumer.  The
   unit of transfer is a batch (an array of items), so the mutex is
   taken once per batch, not per event.

   Backpressure is the producer's choice per push: block until the
   consumer frees a slot (the default, deterministic — nothing is ever
   lost, the producer just runs at the slowest shard's pace), or drop
   the batch and count the items ([dropped] is folded into the shard's
   counters after each run and read through [Engine.stats]).

   [abort] is the failure path: a consumer that dies mid-stream aborts
   its queue so the producer cannot block forever against a reader that
   will never come back — subsequent pushes drop, pops return [None],
   and the pool join re-raises the consumer's exception. *)

type 'a t = {
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  buf : 'a array Queue.t;  (* of batches *)
  capacity : int;  (* max queued batches *)
  mutable closed : bool;  (* producer finished *)
  mutable aborted : bool;  (* consumer died *)
  mutable dropped : int;  (* items (not batches) dropped *)
  mutable max_depth : int;  (* peak queued batches *)
}

type push_result = Pushed | Dropped

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  {
    mu = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    buf = Queue.create ();
    capacity;
    closed = false;
    aborted = false;
    dropped = 0;
    max_depth = 0;
  }

let push t ~drop_when_full batch =
  Mutex.lock t.mu;
  if t.closed then begin
    Mutex.unlock t.mu;
    invalid_arg "Spsc.push: queue closed"
  end;
  let result =
    if t.aborted then begin
      t.dropped <- t.dropped + Array.length batch;
      Dropped
    end
    else if drop_when_full && Queue.length t.buf >= t.capacity then begin
      t.dropped <- t.dropped + Array.length batch;
      Dropped
    end
    else begin
      while Queue.length t.buf >= t.capacity && not t.aborted do
        Condition.wait t.not_full t.mu
      done;
      if t.aborted then begin
        t.dropped <- t.dropped + Array.length batch;
        Dropped
      end
      else begin
        Queue.add batch t.buf;
        let depth = Queue.length t.buf in
        if depth > t.max_depth then t.max_depth <- depth;
        Condition.signal t.not_empty;
        Pushed
      end
    end
  in
  Mutex.unlock t.mu;
  result

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mu

let abort t =
  Mutex.lock t.mu;
  t.aborted <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu

let pop t =
  Mutex.lock t.mu;
  let rec go () =
    if t.aborted then None
    else if not (Queue.is_empty t.buf) then begin
      let b = Queue.take t.buf in
      Condition.signal t.not_full;
      Some b
    end
    else if t.closed then None
    else begin
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

let length t = locked t (fun () -> Queue.length t.buf)
let dropped t = locked t (fun () -> t.dropped)
let max_depth t = locked t (fun () -> t.max_depth)
