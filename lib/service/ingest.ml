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
   one sift, O(log live sources).

   The sift is Floyd's bottom-up one: walk the hole from [k] down to a
   leaf along the smaller children (one key comparison per level), then
   climb the sifted source back up — never above [k] — to its place.
   A refilled head usually belongs near the bottom, so the climb is
   short and the descent skips the standard sift's second comparison
   per level. *)
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
  (* Loops over local refs, not local recursive functions: those would
     be closures allocated on every sift. *)
  let sift_down k =
    let size = !size in
    let x = heap.(k) in
    let sx = seqs.(x) in
    (* Descend: move the smaller child up into the hole at [j]. *)
    let j = ref k in
    let l = ref ((2 * k) + 1) in
    while !l < size do
      let l' = !l in
      let r = l' + 1 in
      (* [r] when its key is the smaller, as arithmetic on the three
         comparisons: the outcome is a coin flip, so a branch on it
         would mispredict about every other level. *)
      let c =
        if r < size then
          let a = heap.(r) and b = heap.(l') in
          let sa = seqs.(a) and sb = seqs.(b) in
          l'
          + (Bool.to_int (sa < sb)
            lor (Bool.to_int (sa = sb) land Bool.to_int (a < b)))
        else l'
      in
      heap.(!j) <- heap.(c);
      j := c;
      l := (2 * c) + 1
    done;
    (* Climb: move parents below [k] back down while [x] sorts before
       them. *)
    let climbing = ref true in
    while !climbing && !j > k do
      let p = (!j - 1) lsr 1 in
      let y = heap.(p) in
      let sy = seqs.(y) in
      if sx < sy || (sx = sy && x < y) then begin
        heap.(!j) <- y;
        j := p
      end
      else climbing := false
    done;
    heap.(!j) <- x
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
