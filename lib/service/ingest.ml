module Event = Pift_trace.Event
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io

type source = {
  src_name : string;
  src_path : string option;  (* None for in-memory recordings *)
  src_pid : int;  (* pid the engine sees *)
  src_orig_pid : int;  (* pid recorded in the trace *)
  src_next : unit -> Recorded.item option;
  src_close : unit -> unit;
  (* Ingest cursor: items handed to the engine (or skipped on resume).
     Counted at merge-emission time, not at head prefetch — [merge]
     holds one prefetched head per source, and a snapshot must record
     only what the engine actually consumed. *)
  mutable src_emitted : int;
}

let tenant_pid ?(pid_range = 1 lsl 20) i =
  if i < 0 then invalid_arg "Ingest.tenant_pid: index must be non-negative";
  (i + 1) * pid_range

let of_recorded ~pid (r : Recorded.t) =
  {
    src_name = r.Recorded.name;
    src_path = None;
    src_pid = pid;
    src_orig_pid = r.Recorded.pid;
    src_next = Recorded.items r;
    src_close = ignore;
    src_emitted = 0;
  }

let of_file ~pid path =
  let r = Trace_io.open_reader path in
  let h = Trace_io.reader_header r in
  {
    src_name = h.Trace_io.h_name;
    src_path = Some path;
    src_pid = pid;
    src_orig_pid = h.Trace_io.h_pid;
    src_next = (fun () -> Trace_io.read_item r);
    src_close = (fun () -> Trace_io.close_reader r);
    src_emitted = 0;
  }

let close s = s.src_close ()
let cursor s = s.src_emitted

(* Resume: discard the items a previous run already consumed (per its
   snapshot cursor), so the next emission is the first unseen item.
   The source must still contain them — a trace shrinking between
   snapshot and restart is corruption, not a clean resume. *)
let skip s n =
  if n < 0 then invalid_arg "Ingest.skip: negative cursor";
  for _ = 1 to n do
    match s.src_next () with
    | Some _ -> s.src_emitted <- s.src_emitted + 1
    | None ->
        failwith
          (Printf.sprintf
             "Ingest.skip: source %s ended before cursor %d (trace changed \
              since snapshot?)"
             s.src_name n)
  done

(* Remap a recorded item onto the source's assigned engine pid.  The
   recording's events may carry child pids (fork); preserving the
   offset from the recorded main pid keeps distinct processes distinct
   inside the tenant's pid block. *)
let to_engine_item s (item : Recorded.item) : Engine.item =
  match item with
  | Recorded.Item_event e ->
      Engine.I_event
        { e with Event.pid = e.Event.pid - s.src_orig_pid + s.src_pid }
  | Recorded.Item_marker (_, Recorded.Source { kind; range }) ->
      Engine.I_source { pid = s.src_pid; kind; range }
  | Recorded.Item_marker (_, Recorded.Sink { kind; ranges }) ->
      Engine.I_sink { pid = s.src_pid; kind; ranges }

let item_seq = function
  | Recorded.Item_event e -> e.Event.seq
  | Recorded.Item_marker (seq, _) -> seq

(* Placeholder for a heap slot whose source has no head yet. *)
let no_item =
  Recorded.Item_marker (0, Recorded.Sink { kind = ""; ranges = [] })

(* Deterministic interleave of the per-source streams: repeatedly emit
   the head with the smallest (seq, source index), so the
   earlier-listed source wins ties on seq.  Only {e head} order across
   sources is decided here; within one source the items come out in
   stream order, which is all per-tenant determinism needs.  The seq of
   a marker is its recorded occurrence seq, so markers compete in the
   same time axis as events.

   The live sources sit in a binary min-heap of source indices keyed on
   (seq of head, index).  The key is a total order, so the minimum — and
   therefore the emitted sequence — does not depend on the heap's shape.
   The first pull reads every head in index order.  The emitted source
   stays at the root until the next pull, which refills it (the only
   [src_next] call a later pull makes) and sifts it down, or drops it
   from the heap for good when its stream has ended.  Each item costs
   one sift, O(log live sources). *)
let merge sources : Engine.stream =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let heads = Array.make n no_item in
  let seqs = Array.make n 0 in
  let heap = Array.make n 0 in
  let size = ref 0 in
  let started = ref false in
  (* [pending]: the root was emitted by the previous pull and must be
     refilled before the next pick. *)
  let pending = ref false in
  let less a b = seqs.(a) < seqs.(b) || (seqs.(a) = seqs.(b) && a < b) in
  let rec sift_down k =
    let l = (2 * k) + 1 in
    if l < !size then begin
      let r = l + 1 in
      let c = if r < !size && less heap.(r) heap.(l) then r else l in
      if less heap.(c) heap.(k) then begin
        let t = heap.(k) in
        heap.(k) <- heap.(c);
        heap.(c) <- t;
        sift_down c
      end
    end
  in
  let read i =
    match srcs.(i).src_next () with
    | Some it ->
        heads.(i) <- it;
        seqs.(i) <- item_seq it;
        true
    | None -> false
  in
  fun () ->
    if not !started then begin
      started := true;
      for i = 0 to n - 1 do
        if read i then begin
          heap.(!size) <- i;
          incr size
        end
      done;
      for k = (!size / 2) - 1 downto 0 do
        sift_down k
      done
    end
    else if !pending then begin
      pending := false;
      if not (read heap.(0)) then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down 0
    end;
    if !size = 0 then None
    else begin
      let i = heap.(0) in
      pending := true;
      srcs.(i).src_emitted <- srcs.(i).src_emitted + 1;
      Some (to_engine_item srcs.(i) heads.(i))
    end

let run ?segment ?on_idle engine sources =
  let idle () = match on_idle with Some f -> f () | None -> () in
  Fun.protect
    ~finally:(fun () -> List.iter close sources)
    (fun () ->
      List.iter
        (fun s ->
          Engine.register_tenant engine ~pid:s.src_pid ~name:s.src_name ())
        sources;
      let stream = merge sources in
      match segment with
      | None ->
          Engine.run engine stream;
          idle ()
      | Some n ->
          if n <= 0 then invalid_arg "Ingest.run: segment must be positive";
          (* Wrap the persistent merged stream in per-segment budgets:
             each [Engine.run] drains at most [n] items and joins the
             pool, so [on_idle] always observes a fully quiescent
             engine — the only state a snapshot may capture. *)
          let exhausted = ref false in
          let budget = ref 0 in
          let bounded () =
            if !budget = 0 then None
            else
              match stream () with
              | None ->
                  exhausted := true;
                  None
              | Some item ->
                  decr budget;
                  Some item
          in
          while not !exhausted do
            budget := n;
            Engine.run engine bounded;
            idle ()
          done)
