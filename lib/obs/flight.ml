(* A fixed-capacity ring of timestamped structured events.  One ring per
   pool worker slot: the writer is a single domain, so the hot path is
   lock-free — a handful of array stores and one clock read per event.
   Slots are preallocated parallel arrays (kind byte, name pointer,
   unboxed float timestamp and value), so recording allocates nothing.
   When the ring is full the oldest events are overwritten: a flight
   recorder keeps the newest history, not the first. *)

type kind = Begin | End | Instant | Sample

type event = { kind : kind; name : string; ts : float; value : float }

type t = {
  cap : int;
  kinds : Bytes.t;
  names : string array;
  tss : float array;
  values : float array;
  mutable next : int;  (* events ever written; slot = next mod cap *)
  mutable last_ts : float;  (* per-ring monotonic clamp *)
}

(* All rings share one process epoch so per-slot timelines merge onto a
   common time axis.  [Unix.gettimeofday] is clamped per ring to be
   non-decreasing, which is all the trace format needs. *)
let epoch = Unix.gettimeofday ()

let now () =
  let t = Unix.gettimeofday () -. epoch in
  if t > 0. then t else 0.

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  let cap = max 0 capacity in
  {
    cap;
    kinds = Bytes.make (max 1 cap) '\000';
    names = Array.make (max 1 cap) "";
    tss = Array.make (max 1 cap) 0.;
    values = Array.make (max 1 cap) 0.;
    next = 0;
    last_ts = 0.;
  }

let capacity t = t.cap

let kind_code = function Begin -> 0 | End -> 1 | Instant -> 2 | Sample -> 3

let kind_of_code = function
  | 0 -> Begin
  | 1 -> End
  | 2 -> Instant
  | _ -> Sample

let record t kind name value =
  if t.cap > 0 then begin
    let ts = now () in
    let ts = if ts >= t.last_ts then ts else t.last_ts in
    t.last_ts <- ts;
    let i = t.next mod t.cap in
    Bytes.unsafe_set t.kinds i (Char.unsafe_chr (kind_code kind));
    Array.unsafe_set t.names i name;
    Array.unsafe_set t.tss i ts;
    Array.unsafe_set t.values i value;
    t.next <- t.next + 1
  end

let begin_ t name = record t Begin name 0.
let end_ t name = record t End name 0.
let instant t name = record t Instant name 0.
let sample t name value = record t Sample name value

let length t = min t.next t.cap
let dropped t = max 0 (t.next - t.cap)

let iter f t =
  if t.cap > 0 then
    for j = max 0 (t.next - t.cap) to t.next - 1 do
      let i = j mod t.cap in
      f
        {
          kind = kind_of_code (Char.code (Bytes.get t.kinds i));
          name = t.names.(i);
          ts = t.tss.(i);
          value = t.values.(i);
        }
    done

(* The repair rules every span consumer shares (Chrome export, profile
   fold): a wrap can overwrite a span's Begin and leave its End, or the
   ring can stop with spans open. *)
let iter_balanced f t =
  let open_ = ref [] and last_ts = ref 0. in
  iter
    (fun e ->
      last_ts := e.ts;
      match e.kind with
      | Begin ->
          open_ := e.name :: !open_;
          f e
      | End -> (
          match !open_ with
          | [] -> ()  (* matching Begin lost to wrap-around *)
          | name :: rest ->
              open_ := rest;
              f { e with name })
      | Instant | Sample -> f e)
    t;
  List.iter
    (fun name -> f { kind = End; name; ts = !last_ts; value = 0. })
    !open_

let events t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc
