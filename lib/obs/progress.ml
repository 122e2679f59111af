(* Live progress for sweeps and runs: one done/total/rate/ETA state
   behind a mutex, shown as a frame repainted in place on a terminal or
   as plain log lines off one (repainting with cursor movement turns CI
   logs into escape-code spam).  Writes only to stderr so viewed and
   unviewed runs keep byte-identical stdout.  Steps and
   telemetry-snapshot hooks may arrive from any worker domain; both are
   per cell or per snapshot, never per event, so the lock is cold. *)

type mode = Off | Live | Log

let log_every = 25

type t = {
  label : string;
  mode : mode;
  telems : Telemetry.t array;
  rings : Flight.t array;
  started : float;
  mu : Mutex.t;
  mutable total : int;
  mutable done_ : int;
  mutable lines : int;  (* lines painted by the previous live frame *)
  mutable last_paint : float;
  mutable last_logged : int;
  mutable finished : bool;
}

let human v =
  if v >= 1e9 then Printf.sprintf "%.1fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if v >= 1e4 then Printf.sprintf "%.1fk" (v /. 1e3)
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

(* The per-slot line reads whichever of the well-known series the
   tracker/storage registered; anything absent is simply not shown. *)
let known_values = [ "tainted_bytes"; "ranges"; "storage_occupancy" ]

let slot_line i te rings =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (Printf.sprintf "  slot %-2d" i);
  Buffer.add_string buf
    (Printf.sprintf " | ev %-7s" (human (float_of_int (Telemetry.events te))));
  Buffer.add_string buf
    (Printf.sprintf " | snaps %d" (Telemetry.taken te));
  let sdrop = Telemetry.dropped te in
  if sdrop > 0 then Buffer.add_string buf (Printf.sprintf " (-%d)" sdrop);
  let latest = Telemetry.latest te in
  List.iter
    (fun name ->
      match List.assoc_opt name latest with
      | Some v ->
          Buffer.add_string buf (Printf.sprintf " | %s %s" name (human v))
      | None -> ())
    known_values;
  (if i < Array.length rings then
     let rdrop = Flight.dropped rings.(i) in
     if rdrop > 0 then
       Buffer.add_string buf (Printf.sprintf " | ring -%d" rdrop));
  Buffer.contents buf

let status t ~now =
  let elapsed = now -. t.started in
  if t.total = 0 then Printf.sprintf "%s: %.1fs" t.label elapsed
  else begin
    let rate = if elapsed > 0. then float_of_int t.done_ /. elapsed else 0. in
    let eta =
      if rate > 0. && t.done_ < t.total then
        Printf.sprintf " ETA %.0fs" (float_of_int (t.total - t.done_) /. rate)
      else ""
    in
    Printf.sprintf "%s: %d/%d (%.1f/s)%s" t.label t.done_ t.total rate eta
  end

let paint t ~now =
  let buf = Buffer.create 256 in
  if t.lines > 0 then
    Buffer.add_string buf (Printf.sprintf "\027[%dA" t.lines);
  let add line =
    Buffer.add_string buf "\r\027[K";
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  in
  add (status t ~now);
  Array.iteri (fun i te -> add (slot_line i te t.rings)) t.telems;
  t.lines <- 1 + Array.length t.telems;
  t.last_paint <- now;
  prerr_string (Buffer.contents buf);
  flush stderr

let log_line t ~now =
  prerr_endline (status t ~now);
  t.last_logged <- t.done_

let refresh t =
  Mutex.protect t.mu (fun () ->
      let now = Unix.gettimeofday () in
      if (not t.finished) && now -. t.last_paint >= 0.1 then paint t ~now)

let create ?enabled ?(telems = [||]) ?(rings = [||]) ~label ~total () =
  let tty = Unix.isatty Unix.stderr in
  let mode =
    match enabled with
    | Some false -> Off
    | Some true -> if tty then Live else Log
    | None -> if tty then Live else Off
  in
  let t =
    {
      label;
      mode;
      telems;
      rings;
      started = Unix.gettimeofday ();
      mu = Mutex.create ();
      total = max 0 total;
      done_ = 0;
      lines = 0;
      last_paint = 0.;
      last_logged = -1;
      finished = false;
    }
  in
  (* Snapshots drive mid-phase repaints (throttled), so the frame moves
     even while a single long cell is replaying. *)
  if mode = Live then
    Array.iter (fun te -> Telemetry.on_snapshot te (fun () -> refresh t))
      telems;
  t

let set_total t total = Mutex.protect t.mu (fun () -> t.total <- max 0 total)

let step t =
  if t.mode <> Off then
    Mutex.protect t.mu (fun () ->
        t.done_ <- t.done_ + 1;
        let now = Unix.gettimeofday () in
        let last = t.done_ >= t.total in
        match t.mode with
        | Live -> if last || now -. t.last_paint >= 0.1 then paint t ~now
        | Log -> if last || t.done_ mod log_every = 0 then log_line t ~now
        | Off -> ())

let finish t =
  if t.mode <> Off then
    Mutex.protect t.mu (fun () ->
        if not t.finished then begin
          t.finished <- true;
          let now = Unix.gettimeofday () in
          match t.mode with
          | Live -> paint t ~now
          | Log -> if t.last_logged <> t.done_ then log_line t ~now
          | Off -> ()
        end)
