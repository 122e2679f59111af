(* A deliberately small domain pool: one mutex, two condition variables,
   and an epoch counter.  Parallel regions are serialised at the pool —
   [map_slots] publishes one job, every worker (caller included) pulls
   chunks off an atomic cursor, and the caller joins before returning,
   so at most one job is ever in flight and workers can keep plain
   (unsynchronised) per-slot state between jobs. *)

type job = worker:int -> unit

type t = {
  jobs : int;
  mu : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable pending : job option;
  mutable epoch : int;  (* bumped per published job *)
  mutable running : int;  (* workers still inside the current job *)
  mutable failed : exn option;  (* first exception, re-raised by caller *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;  (* [] until the first parallel job *)
  rings : Pift_obs.Flight.t array;
      (* flight-recorder ring per worker slot; [||] = tracing off *)
}

let default_jobs () = Domain.recommended_domain_count ()

let record_failure t exn =
  Mutex.lock t.mu;
  if t.failed = None then t.failed <- Some exn;
  Mutex.unlock t.mu

let worker_loop t ~worker =
  let seen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.mu;
    while (not t.stop) && t.epoch = !seen do
      Condition.wait t.work_ready t.mu
    done;
    if t.stop then begin
      Mutex.unlock t.mu;
      continue_ := false
    end
    else begin
      seen := t.epoch;
      let job = Option.get t.pending in
      Mutex.unlock t.mu;
      (try job ~worker with exn -> record_failure t exn);
      Mutex.lock t.mu;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mu
    end
  done

let create ?jobs ?(rings = [||]) () =
  let jobs =
    match jobs with None -> default_jobs () | Some j -> max 1 j
  in
  {
    rings;
    jobs;
    mu = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    pending = None;
    epoch = 0;
    running = 0;
    failed = None;
    stop = false;
    domains = [];
  }

(* The worker domains are spawned by the first parallel job, not by
   [create].  While a second domain exists, Linux makes every growth of
   the process's file-descriptor table (at 64, 128, 256, ... open fds)
   wait for an RCU grace period, 15-44 ms each on a 2-vCPU VM, so a
   pool created before its caller opens files would tax every open.
   A new worker has seen epoch 0 and no job is published yet, so it
   waits for the one [run_job] is about to publish.  Spawned one at a
   time, so a failed spawn leaves the ones before it joinable and the
   next job spawns the rest. *)
let spawn_workers t =
  for worker = List.length t.domains + 1 to t.jobs - 1 do
    t.domains <- Domain.spawn (fun () -> worker_loop t ~worker) :: t.domains
  done

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs ?rings f =
  let t = create ?jobs ?rings () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Publish [job], run our share as worker 0, join the pool, re-raise the
   first failure. *)
let run_job t job =
  if t.stop then invalid_arg "Pool: used after shutdown";
  if t.jobs = 1 then begin
    t.failed <- None;
    (try job ~worker:0 with exn -> t.failed <- Some exn)
  end
  else begin
    spawn_workers t;
    Mutex.lock t.mu;
    t.failed <- None;
    t.pending <- Some job;
    t.running <- t.jobs - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mu;
    (try job ~worker:0 with exn -> record_failure t exn);
    Mutex.lock t.mu;
    while t.running > 0 do
      Condition.wait t.work_done t.mu
    done;
    t.pending <- None;
    Mutex.unlock t.mu
  end;
  match t.failed with
  | Some exn ->
      t.failed <- None;
      raise exn
  | None -> ()

let map_slots t ?(chunk = 1) ~f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let chunk = max 1 chunk in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let job ~worker =
      let ring =
        if worker < Array.length t.rings then Some t.rings.(worker) else None
      in
      let continue_ = ref true in
      while !continue_ do
        let start = Atomic.fetch_and_add cursor chunk in
        if start >= n then continue_ := false
        else begin
          (match ring with
          | Some r -> Pift_obs.Flight.begin_ r "chunk"
          | None -> ());
          for i = start to min n (start + chunk) - 1 do
            out.(i) <- Some (f ~worker i xs.(i))
          done;
          match ring with
          | Some r -> Pift_obs.Flight.end_ r "chunk"
          | None -> ()
        end
      done
    in
    run_job t job;
    Array.map
      (function Some v -> v | None -> assert false (* run_job raised *))
      out
  end

let map t ?chunk ~f xs = map_slots t ?chunk ~f:(fun ~worker:_ _ x -> f x) xs

let map_reduce t ?chunk ~map:f ~combine ~init xs =
  Array.fold_left combine init (map t ?chunk ~f xs)
