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

(* The width of a tenant's pid block, [Engine.create]'s default
   [pid_range]. *)
let pid_block = 1 lsl 20

let tenant_pid ?(pid_range = pid_block) i =
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
   inside the tenant's pid block.  An offset outside the block would
   land on another tenant's pid, so it is refused. *)
let to_engine_item s (item : Recorded.item) : Engine.item =
  match item with
  | Recorded.Item_event e ->
      let offset = e.Event.pid - s.src_orig_pid in
      if offset < 0 || offset >= pid_block then
        failwith
          (Printf.sprintf
             "Ingest: %s: item %d: event pid %d is outside the tenant's pid \
              block [%d, %d)"
             (Option.value s.src_path ~default:s.src_name)
             s.src_emitted e.Event.pid s.src_orig_pid
             (s.src_orig_pid + pid_block));
      Engine.I_event { e with Event.pid = offset + s.src_pid }
  | Recorded.Item_marker (_, Recorded.Source { kind; range }) ->
      Engine.I_source { pid = s.src_pid; kind; range }
  | Recorded.Item_marker (_, Recorded.Sink { kind; ranges }) ->
      Engine.I_sink { pid = s.src_pid; kind; ranges }

let item_seq = function
  | Recorded.Item_event e -> e.Event.seq
  | Recorded.Item_marker (seq, _) -> seq

(* Placeholder for the head of a source that has none. *)
let no_item =
  Recorded.Item_marker (0, Recorded.Sink { kind = ""; ranges = [] })

(* A window of 4,096 seqs holds at most 4,096 events of one recording
   (its markers reuse their events' seqs), half of one default shard
   queue (64 batches of 128 rows). *)
let window_bits = 12

(* The window of a source whose stream has ended.  No head reaches it:
   [max_int asr window_bits] is far below [max_int]. *)
let ended = max_int

(* Deterministic interleave of the per-source streams: repeatedly emit
   the head with the smallest (seq asr window_bits, source index).  So
   one source runs on for up to a whole window of seqs before the next
   one takes over, and the earlier-listed source wins ties on the
   window.  Within one source the items come out in stream order, which
   is all per-tenant determinism needs.  The seq of a marker is its
   recorded occurrence seq, so markers share the events' time axis.

   A round serves window [w], the smallest head window when it starts:
   the sources are taken in index order, and each emits while its head's
   window is at most [w].  A later source cannot have a smaller window
   (none moved since [w] was taken) and a passed one has a larger one,
   so the current source's head is the minimum even when its seqs drop
   back below [w].  After the last source the next round starts from
   the new minimum: one pass over the heads per round, none per item.
   The first pull reads every head in index order; the emitted source
   keeps its place until the next pull refills it (the only [src_next]
   call a later pull makes). *)
let merge sources : Engine.stream =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let heads = Array.make n no_item in
  let wins = Array.make n ended in
  let read i =
    match srcs.(i).src_next () with
    | Some it ->
        heads.(i) <- it;
        wins.(i) <- item_seq it asr window_bits
    | None -> wins.(i) <- ended
  in
  let min_window () =
    let m = ref ended in
    for i = 0 to n - 1 do
      if wins.(i) < !m then m := wins.(i)
    done;
    !m
  in
  let w = ref ended in
  let cur = ref 0 in
  let started = ref false in
  (* [pending]: [cur] was emitted by the previous pull and must be
     refilled before the next pick. *)
  let pending = ref false in
  fun () ->
    if not !started then begin
      started := true;
      for i = 0 to n - 1 do
        read i
      done;
      w := min_window ()
    end
    else if !pending then begin
      pending := false;
      read !cur
    end;
    while !w <> ended && wins.(!cur) > !w do
      if !cur + 1 < n then incr cur
      else begin
        cur := 0;
        w := min_window ()
      end
    done;
    if !w = ended then None
    else begin
      let i = !cur in
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
