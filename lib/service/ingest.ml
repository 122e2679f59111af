module Event = Pift_trace.Event
module Row = Pift_trace.Row
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
     Counted at emission time, not at head prefetch — the schedule
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

(* The readers of the open [of_file] sources, each with its source's
   [src_next].  The fill path decodes a source's rows straight from its
   reader while the source's [src_next] is still that closure; any other
   source — a recording, a hand-built stream, a wrapper around a file
   source's [src_next] — is read through [src_next], one item per row.
   So the source stays the plain record callers build and copy.  An
   entry leaves when its source is closed. *)
let file_readers : ((unit -> Recorded.item option) * Trace_io.reader) list Atomic.t =
  Atomic.make []

let rec update_readers f =
  let old = Atomic.get file_readers in
  if not (Atomic.compare_and_set file_readers old (f old)) then update_readers f

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
  let next () = Trace_io.read_item r in
  update_readers (List.cons (next, r));
  {
    src_name = h.Trace_io.h_name;
    src_path = Some path;
    src_pid = pid;
    src_orig_pid = h.Trace_io.h_pid;
    src_next = next;
    src_close =
      (fun () ->
        update_readers (List.filter (fun (_, r') -> r' != r));
        Trace_io.close_reader r);
    src_emitted = 0;
  }

let close s = s.src_close ()
let cursor s = s.src_emitted

(* The reader the fill path decodes [s]'s rows from. *)
let reader_of s =
  match
    List.find_opt (fun (next, _) -> next == s.src_next) (Atomic.get file_readers)
  with
  | Some (_, r) -> r
  | None ->
      Trace_io.of_items
        {
          Trace_io.h_name = s.src_name;
          h_pid = s.src_orig_pid;
          h_bytecodes = 0;
        }
        s.src_next

(* Resume: discard the items a previous run already consumed (per its
   snapshot cursor), so the next emission is the first unseen item.
   The source must still contain them — a trace shrinking between
   snapshot and restart is corruption, not a clean resume. *)
let skip s n =
  if n < 0 then invalid_arg "Ingest.skip: negative cursor";
  let r = reader_of s and row = Array.make Row.width 0 in
  for _ = 1 to n do
    if Trace_io.read_row r row 0 then s.src_emitted <- s.src_emitted + 1
    else
      failwith
        (Printf.sprintf
           "Ingest.skip: source %s ended before cursor %d (trace changed \
            since snapshot?)"
           s.src_name n)
  done

(* The recording's events may carry child pids (fork); preserving the
   offset from the recorded main pid keeps distinct processes distinct
   inside the tenant's pid block.  An offset outside the block would
   land on another tenant's pid, so it is refused, naming the item by
   the cursor (already advanced past it). *)
let refuse s pid =
  failwith
    (Printf.sprintf
       "Ingest: %s: item %d: event pid %d is outside the tenant's pid block \
        [%d, %d)"
       (Option.value s.src_path ~default:s.src_name)
       s.src_emitted pid s.src_orig_pid
       (s.src_orig_pid + pid_block))

(* An event's pid in the engine: [src_pid] plus its offset from the
   recorded main pid. *)
let engine_pid s pid =
  let offset = pid - s.src_orig_pid in
  if offset < 0 || offset >= pid_block then refuse s pid;
  offset + s.src_pid

let marker_item s = function
  | Recorded.Source { kind; range } ->
      Engine.I_source { pid = s.src_pid; kind; range }
  | Recorded.Sink { kind; ranges } ->
      Engine.I_sink { pid = s.src_pid; kind; ranges }

let to_engine_item s (item : Recorded.item) : Engine.item =
  match item with
  | Recorded.Item_event e ->
      Engine.I_event { e with Event.pid = engine_pid s e.Event.pid }
  | Recorded.Item_marker (_, m) -> marker_item s m

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

(* The one window schedule, behind both [merge]'s pulls and [fill]'s
   rows: repeatedly emit the head with the smallest
   (seq asr window_bits, source index).  So one source runs on for up
   to a whole window of seqs before the next one takes over, and the
   earlier-listed source wins ties on the window.  Within one source
   the items come out in stream order, which is all per-tenant
   determinism needs.  The seq of a marker is its recorded occurrence
   seq, so markers share the events' time axis.

   A round serves window [w], the smallest head window when it starts:
   the sources are taken in index order, and each emits while its
   head's window is at most [w].  A later source cannot have a smaller
   window (none moved since [w] was taken) and a passed one has a
   larger one, so the current source's head is the minimum even when
   its seqs drop back below [w].  After the last source the next round
   starts from the new minimum: one pass over the heads per round, none
   per item. *)
type schedule = {
  wins : int array;  (* each source's head window, [ended] once done *)
  mutable w : int;  (* the window this round serves *)
  mutable cur : int;  (* the source being served *)
  mutable started : bool;
  (* [cur]'s head was emitted: read its next before the next pick. *)
  mutable pending : bool;
}

let schedule n =
  { wins = Array.make n ended; w = ended; cur = 0; started = false; pending = false }

let min_window wins =
  let m = ref ended in
  for i = 0 to Array.length wins - 1 do
    if wins.(i) < !m then m := wins.(i)
  done;
  !m

(* The source whose head is emitted next, or -1 once every stream has
   ended; the pick marks that head emitted.  [read i] reads source [i]'s
   next head and sets [wins.(i)].  The first pick reads every head in
   index order; a later one first reads the next head of the source
   picked last, the only read a pick makes, and a source whose stream
   ended is never read again. *)
let pick sc read =
  let n = Array.length sc.wins in
  if not sc.started then begin
    sc.started <- true;
    for i = 0 to n - 1 do
      read i
    done;
    sc.w <- min_window sc.wins
  end
  else if sc.pending then begin
    sc.pending <- false;
    read sc.cur
  end;
  while sc.w <> ended && sc.wins.(sc.cur) > sc.w do
    if sc.cur + 1 < n then sc.cur <- sc.cur + 1
    else begin
      sc.cur <- 0;
      sc.w <- min_window sc.wins
    end
  done;
  if sc.w = ended then -1
  else begin
    sc.pending <- true;
    sc.cur
  end

let merge sources : Engine.stream =
  let srcs = Array.of_list sources in
  let heads = Array.make (Array.length srcs) no_item in
  let sc = schedule (Array.length srcs) in
  let read i =
    match srcs.(i).src_next () with
    | Some it ->
        heads.(i) <- it;
        sc.wins.(i) <- item_seq it asr window_bits
    | None -> sc.wins.(i) <- ended
  in
  fun () ->
    let i = pick sc read in
    if i < 0 then None
    else begin
      let s = srcs.(i) in
      s.src_emitted <- s.src_emitted + 1;
      Some (to_engine_item s heads.(i))
    end

let width = Row.width

(* Emit the record decoded into row [b_len] of [b], the next record of
   source [s] (read from [rd]): count it, take it from [budget], map an
   event's pid into the tenant's block, put a marker's item beside its
   row.  A non-memory event joins the batch's last row instead when that
   row counts the same engine pid's non-memory events ([Engine.run]'s
   per-item path folds by the same rule), and the slot it was decoded
   into stays free. *)
let emit s rd (b : Engine.batch) budget =
  s.src_emitted <- s.src_emitted + 1;
  decr budget;
  let r = b.b_len in
  let rows = b.b_rows and o = r * width in
  let tag = rows.(o) in
  if tag = Row.tag_item then begin
    rows.(o + 1) <- s.src_pid;
    b.b_side.(r) <- marker_item s (Trace_io.row_marker rd);
    b.b_len <- r + 1
  end
  else begin
    let pid = engine_pid s rows.(o + 1) in
    if
      not
        (tag = Row.tag_other && r > 0
        && Row.fold rows (o - width) ~pid ~seq:rows.(o + 2) ~k:rows.(o + 3))
    then begin
      rows.(o + 1) <- pid;
      b.b_len <- r + 1
    end
  end

(* [fill], emitting while [budget] (in items) lasts.  The schedule's
   heads are rows of [heads], one per source.  Once a pick has emitted a
   source's head, its next records are decoded straight into the batch
   while they stay in the round's window; the first one past it is
   copied back as the source's new head.  A record that folds leaves
   its row free for the next one. *)
let fill_budget sources budget : Engine.fill =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let readers = Array.map reader_of srcs in
  let heads = Array.make (n * width) 0 in
  let sc = schedule n in
  let read i =
    if Trace_io.read_row readers.(i) heads (i * width) then
      sc.wins.(i) <- heads.((i * width) + 2) asr window_bits
    else sc.wins.(i) <- ended
  in
  fun b room ->
    let stop = b.b_len + room in
    let more = ref true in
    while !more && b.b_len < stop && !budget > 0 do
      let i = pick sc read in
      if i < 0 then more := false
      else begin
        let s = srcs.(i) and rd = readers.(i) in
        Row.blit heads (i * width) b.b_rows (b.b_len * width);
        emit s rd b budget;
        let serving = ref true in
        while !serving && b.b_len < stop && !budget > 0 do
          let o = b.b_len * width in
          if not (Trace_io.read_row rd b.b_rows o) then begin
            sc.wins.(i) <- ended;
            sc.pending <- false;
            serving := false
          end
          else begin
            let win = b.b_rows.(o + 2) asr window_bits in
            if win <= sc.w then emit s rd b budget
            else begin
              Row.blit b.b_rows o heads (i * width);
              sc.wins.(i) <- win;
              sc.pending <- false;
              serving := false
            end
          end
        done
      end
    done;
    !more

let fill sources = fill_budget sources (ref max_int)

let run ?segment ?on_idle engine sources =
  let idle () = match on_idle with Some f -> f () | None -> () in
  Fun.protect
    ~finally:(fun () -> List.iter close sources)
    (fun () ->
      List.iter
        (fun s ->
          Engine.register_tenant engine ~pid:s.src_pid ~name:s.src_name ())
        sources;
      match segment with
      | None ->
          Engine.run_fill engine (fill sources);
          idle ()
      | Some n ->
          if n <= 0 then invalid_arg "Ingest.run: segment must be positive";
          (* Per-segment budgets over the one schedule: each
             [Engine.run_fill] takes at most [n] items and joins the
             pool, so [on_idle] always observes a fully quiescent engine
             — the only state a snapshot may capture.  A spent budget
             ends the run without reading further; the budget counts
             items, so a counted row never reaches past it. *)
          let exhausted = ref false in
          let budget = ref 0 in
          let fill = fill_budget sources budget in
          let bounded b room =
            !budget > 0
            &&
            let more = fill b room in
            if not more then exhausted := true;
            more
          in
          while not !exhausted do
            budget := n;
            Engine.run_fill engine bounded;
            idle ()
          done)
