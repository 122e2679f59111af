module Insn = Pift_arm.Insn
module Range = Pift_util.Range

(* Rows live in fixed-size chunks of [chunk_rows] rows, so appending
   never copies; [trim] cuts the last, partly filled chunk to its rows
   once a recording ends, so the many short recordings of a sweep do
   not each keep a mostly empty chunk.  [insns] keeps the instructions
   [sink] stored, one per event, in chunks of the same shape; it stays
   [[||]] while the trace holds only decoded events.

   A memory row's column 4 is the index of its range in [ranges], the
   trace's intern table of distinct ranges, and column 5 its length; a
   [Row.tag_other] row keeps 0 and its count there. *)
let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits
let chunk_mask = chunk_rows - 1
let width = Row.width

module Intern = Hashtbl.Make (struct
  type t = Range.t

  let equal (a : t) (b : t) = a.lo = b.lo && a.hi = b.hi
  let hash (r : t) = ((r.lo * 0x9E3779B1) + r.hi) land max_int
end)

type t = {
  mutable rows : int array array;
  mutable nrows : int;
  mutable insns : Insn.t array array;
  mutable len : int;
  mutable loads : int;
  mutable stores : int;
  intern : int Intern.t;
  mutable ranges : Range.t array;
}

let create () =
  {
    rows = [||];
    nrows = 0;
    insns = [||];
    len = 0;
    loads = 0;
    stores = 0;
    intern = Intern.create 64;
    ranges = [||];
  }

(* Element [i] of [w] slots has no room in [chunks] yet. *)
let[@inline] full chunks i w =
  let c = i lsr chunk_bits in
  c = Array.length chunks || (i land chunk_mask) * w = Array.length chunks.(c)

(* Room for element [i] of [w] slots in [chunks]: a new chunk, or a
   trimmed last chunk grown back to full size. *)
let room chunks i w fill =
  let c = i lsr chunk_bits in
  let b = Array.make (chunk_rows * w) fill in
  if c = Array.length chunks then Array.append chunks [| b |]
  else begin
    Array.blit chunks.(c) 0 b 0 (Array.length chunks.(c));
    chunks.(c) <- b;
    chunks
  end

(* Cut the chunk holding element [n - 1] to its first [n] elements. *)
let cut chunks n w =
  if n > 0 then begin
    let c = (n - 1) lsr chunk_bits in
    let used = (((n - 1) land chunk_mask) + 1) * w in
    if used < Array.length chunks.(c) then
      chunks.(c) <- Array.sub chunks.(c) 0 used
  end

let intern t r =
  match Intern.find t.intern r with
  | i -> i
  | exception Not_found ->
      let i = Intern.length t.intern in
      if i = Array.length t.ranges then begin
        let b = Array.make (max 16 (2 * i)) r in
        Array.blit t.ranges 0 b 0 i;
        t.ranges <- b
      end;
      t.ranges.(i) <- r;
      Intern.add t.intern r i;
      i

(* The recording's fold, stricter than [Row.fold]: a non-memory event
   joins the last row only when it is the next instruction of that
   row's run (seq and k each one past the row's), so every event of a
   counted row can be rebuilt from its last. *)
let folds t ~pid ~seq ~k =
  t.nrows > 0
  &&
  let r = t.nrows - 1 in
  let rows = t.rows.(r lsr chunk_bits) and o = (r land chunk_mask) * width in
  rows.(o) = Row.tag_other
  && seq = rows.(o + 2) + 1
  && k = rows.(o + 3) + 1
  && Row.fold rows o ~pid ~seq ~k

let new_row t tag pid seq k c4 c5 =
  let r = t.nrows in
  if full t.rows r width then t.rows <- room t.rows r width 0;
  let rows = t.rows.(r lsr chunk_bits) and o = (r land chunk_mask) * width in
  rows.(o) <- tag;
  rows.(o + 1) <- pid;
  rows.(o + 2) <- seq;
  rows.(o + 3) <- k;
  rows.(o + 4) <- c4;
  rows.(o + 5) <- c5;
  t.nrows <- r + 1

let push_other t ~pid ~seq ~k =
  if not (folds t ~pid ~seq ~k) then new_row t Row.tag_other pid seq k 0 1;
  t.len <- t.len + 1

let push_mem t tag ~pid ~seq ~k r =
  new_row t tag pid seq k (intern t r) (Range.length r);
  if tag = Row.tag_load then t.loads <- t.loads + 1
  else t.stores <- t.stores + 1;
  t.len <- t.len + 1

let push t (e : Event.t) =
  match e.access with
  | Event.Other -> push_other t ~pid:e.pid ~seq:e.seq ~k:e.k
  | Event.Load r -> push_mem t Row.tag_load ~pid:e.pid ~seq:e.seq ~k:e.k r
  | Event.Store r -> push_mem t Row.tag_store ~pid:e.pid ~seq:e.seq ~k:e.k r

let has_insns t = t.len = 0 || Array.length t.insns > 0

let add t rows o =
  if Array.length t.insns > 0 then
    invalid_arg "Trace.add: this trace records instructions (use Trace.sink)";
  let tag = rows.(o) and pid = rows.(o + 1) in
  let seq = rows.(o + 2) and k = rows.(o + 3) in
  if tag = Row.tag_other then push_other t ~pid ~seq ~k
  else push_mem t tag ~pid ~seq ~k (Row.range rows o)

let sink t insn e =
  if not (has_insns t) then
    invalid_arg "Trace.sink: this trace holds decoded events (use Trace.add)";
  if full t.insns t.len 1 then t.insns <- room t.insns t.len 1 Insn.Nop;
  t.insns.(t.len lsr chunk_bits).(t.len land chunk_mask) <- insn;
  push t e

let trim t =
  cut t.rows t.nrows width;
  if Array.length t.insns > 0 then cut t.insns t.len 1

let length t = t.len
let loads t = t.loads
let stores t = t.stores
let range t rows o = t.ranges.(rows.(o + 4))

(* Between marks, one compare per row.  A counted row the next mark's
   seq falls inside goes to [row] in parts, through [part]: a run's
   seqs and ks count up by one, so each part is a counted row of its
   own, ending at the first event whose seq reaches the mark. *)
let walk t ~marks ~row ~mark =
  let nm = Array.length marks and mi = ref 0 in
  let due = ref (if nm > 0 then marks.(0) else max_int) in
  let fire upto =
    while !mi < nm && marks.(!mi) <= upto do
      mark !mi;
      incr mi
    done;
    due := if !mi < nm then marks.(!mi) else max_int
  in
  let part = Array.make width 0 in
  part.(0) <- Row.tag_other;
  let rec split pid seq k n =
    let last = if !due < seq then max !due (seq - n + 1) else seq in
    part.(1) <- pid;
    part.(2) <- last;
    part.(3) <- k - (seq - last);
    part.(5) <- n - (seq - last);
    row part 0;
    if last < seq then (fire last; split pid seq k (seq - last))
  in
  if !due <= 0 then fire 0;
  for c = 0 to Array.length t.rows - 1 do
    let rows = t.rows.(c) in
    for o = 0 to min chunk_mask (t.nrows - 1 - (c lsl chunk_bits)) do
      let o = o * width in
      let seq = rows.(o + 2) in
      if seq < !due then row rows o
      else begin
        if rows.(o) = Row.tag_other && !due < seq then
          split rows.(o + 1) seq rows.(o + 3) rows.(o + 5)
        else row rows o;
        fire seq
      end
    done
  done;
  fire max_int

let iter_rows f t = walk t ~marks:[||] ~row:f ~mark:ignore

(* Event [j] (from 0) of the row at [o]: a counted row of [n] holds the
   run that ends at its seq and k. *)
let event t rows o j =
  let tag = rows.(o) in
  let back = Row.count rows o - 1 - j in
  {
    Event.seq = rows.(o + 2) - back;
    k = rows.(o + 3) - back;
    pid = rows.(o + 1);
    access =
      (if tag = Row.tag_other then Event.Other
       else if tag = Row.tag_load then Event.Load (range t rows o)
       else Event.Store (range t rows o));
  }

let iter f t =
  iter_rows
    (fun rows o ->
      for j = 0 to Row.count rows o - 1 do
        f (event t rows o j)
      done)
    t

(* On a decoded trace, [t.insns] is empty and the access itself raises. *)
let insn t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.insn: out of bounds";
  t.insns.(i lsr chunk_bits).(i land chunk_mask)
