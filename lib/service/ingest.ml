module Event = Pift_trace.Event
module Row = Pift_trace.Row
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io

type source = {
  src_name : string;
  src_path : string option;  (* None for in-memory recordings *)
  src_pid : int;  (* pid the engine sees *)
  src_orig_pid : int;  (* pid recorded in the trace *)
  src_reader : Trace_io.reader;
  src_next : unit -> Recorded.item option;
  (* Ingest cursor: items handed to the engine (or skipped on resume).
     Counted at emission time, not at head prefetch — the schedule
     holds one prefetched head per source, and a snapshot must record
     only what the engine actually consumed. *)
  mutable src_emitted : int;
}

let tenant_pid i =
  if i < 0 then invalid_arg "Ingest.tenant_pid: index must be non-negative";
  (i + 1) * Engine.pid_range

(* A source over [r], named and pid-tagged by its header. *)
let of_reader ~pid ?path r =
  let h = Trace_io.reader_header r in
  {
    src_name = h.Trace_io.h_name;
    src_path = path;
    src_pid = pid;
    src_orig_pid = h.Trace_io.h_pid;
    src_reader = r;
    src_next = (fun () -> Trace_io.read_item r);
    src_emitted = 0;
  }

let of_recorded ~pid r = of_reader ~pid (Trace_io.of_recorded r)

let of_file ~pid path = of_reader ~pid ~path (Trace_io.open_reader path)
let close s = Trace_io.close_reader s.src_reader
let cursor s = s.src_emitted

(* Resume: discard the items a previous run already consumed (per its
   snapshot cursor), so the next emission is the first unseen item.
   The source must still contain them — a trace shrinking between
   snapshot and restart is corruption, not a clean resume. *)
let skip s n =
  if n < 0 then invalid_arg "Ingest.skip: negative cursor";
  let r = s.src_reader and row = Array.make Row.width 0 in
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
       (s.src_orig_pid + Engine.pid_range))

(* What [s]'s recorded pids are shifted by: the engine pid of each is
   [src_pid] plus its offset from the recorded main pid. *)
let shift s = s.src_pid - s.src_orig_pid

(* Whether an engine pid of [s] lies outside its tenant's block.  The
   offset is the recorded pid's, in wrapping arithmetic too. *)
let outside s pid =
  let offset = pid - s.src_pid in
  offset < 0 || offset >= Engine.pid_range

let engine_pid s pid =
  let e = pid + shift s in
  if outside s e then refuse s pid;
  e

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

let marker_side s = function
  | Recorded.Source { kind; range } ->
      Engine.S_source { pid = s.src_pid; kind; range }
  | Recorded.Sink { kind; ranges } ->
      Engine.S_sink { pid = s.src_pid; kind; ranges }

(* Emit [s]'s head, already in row [b_len] of [b] with its pid shifted
   (read from [rd]): count it, take it from [budget], check its pid,
   put a marker's item beside its row.  A non-memory event joins the
   batch's last row instead when that row counts the same engine pid's
   non-memory events ([Engine.run]'s per-item path folds by the same
   rule), and the slot it was in stays free. *)
let emit s rd (b : Engine.batch) budget =
  s.src_emitted <- s.src_emitted + 1;
  decr budget;
  let r = b.b_len in
  let rows = b.b_rows and o = r * width in
  let tag = rows.(o) and pid = rows.(o + 1) in
  if tag = Row.tag_item then begin
    rows.(o + 1) <- s.src_pid;
    b.b_side.(r) <- marker_side s (Trace_io.row_marker rd);
    b.b_len <- r + 1
  end
  else begin
    if outside s pid then refuse s (pid - shift s);
    if
      not
        (tag = Row.tag_other && r > 0
        && Row.fold rows (o - width) ~pid ~seq:rows.(o + 2) ~k:rows.(o + 3))
    then b.b_len <- r + 1
  end

(* After a decode call of [s]'s records from row [first] of [b], with
   [bk] where the call left it: advance [b_len], the cursor and
   [budget] by what it placed, and check the new event rows' pids.  A
   row outside the tenant's block is refused with the cursor of its
   first item, as the per-record path refused it, and the rows before
   it stay delivered.  A record folds only into a row of its own engine
   pid, whose first item was checked, so only each row's first item
   needs the check.  A marker row gets [src_pid], as [emit] gives it. *)
let account s (b : Engine.batch) (bk : Trace_io.block) first budget =
  s.src_emitted <- s.src_emitted + !budget - bk.bk_budget;
  budget := bk.bk_budget;
  b.b_len <- bk.bk_next / width;
  let rows = b.b_rows in
  for r = first to b.b_len - 1 do
    let o = r * width in
    let pid = rows.(o + 1) in
    if rows.(o) = Row.tag_item then rows.(o + 1) <- s.src_pid
    else if outside s pid then begin
      let later = ref 0 in
      for r' = r to b.b_len - 1 do
        later := !later + Row.count rows (r' * width)
      done;
      s.src_emitted <- s.src_emitted - !later + 1;
      b.b_len <- r;
      refuse s (pid - shift s)
    end
  done

(* The largest seq of window [w]. *)
let window_end w = (w lsl window_bits) lor ((1 lsl window_bits) - 1)

(* [fill], emitting while [budget] (in items) lasts.  The schedule's
   heads are rows of [heads], one per source, with the pids as
   recorded.  Once a pick has emitted a source's head, its next records
   are decoded straight into the batch by one [Trace_io.read_rows]
   call per stretch, bounded by the round's window; a marker ends a
   call, and the first record past the window is copied back as the
   source's new head. *)
let fill_budget sources budget : Engine.fill =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let readers = Array.map (fun s -> s.src_reader) srcs in
  let heads = Array.make (n * width) 0 in
  let bk = Trace_io.block () in
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
        let o = b.b_len * width in
        Row.blit heads (i * width) b.b_rows o;
        b.b_rows.(o + 1) <- b.b_rows.(o + 1) + shift s;
        emit s rd b budget;
        bk.bk_shift <- shift s;
        bk.bk_bound <- window_end sc.w;
        let serving = ref true in
        while !serving && b.b_len < stop && !budget > 0 do
          let first = b.b_len in
          if bk.bk_rows != b.b_rows then bk.bk_rows <- b.b_rows;
          bk.bk_next <- first * width;
          bk.bk_end <- stop * width;
          bk.bk_budget <- !budget;
          match Trace_io.read_rows rd bk with
          | exception e ->
              account s b bk first budget;
              raise e
          | stopped -> (
              account s b bk first budget;
              match stopped with
              | Trace_io.Full -> ()
              | Trace_io.Marker ->
                  b.b_side.(b.b_len - 1) <-
                    marker_side s (Trace_io.row_marker rd)
              | Trace_io.Past ->
                  let h = i * width in
                  Row.blit b.b_rows bk.bk_next heads h;
                  heads.(h + 1) <- heads.(h + 1) - shift s;
                  sc.wins.(i) <- heads.(h + 2) asr window_bits;
                  sc.pending <- false;
                  serving := false
              | Trace_io.Ended ->
                  sc.wins.(i) <- ended;
                  sc.pending <- false;
                  serving := false)
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
