(* Live progress for sweeps and runs: one done/total/rate/ETA state
   behind a mutex, shown as a status line repainted in place on a
   terminal or as plain log lines off one (repainting turns CI logs
   into escape-code spam).  Writes only to stderr so viewed and
   unviewed runs keep byte-identical stdout.  Steps may arrive from any
   worker domain; they are per cell, never per event, so the lock is
   cold. *)

type mode = Off | Live | Log

let log_every = 25

type t = {
  label : string;
  mode : mode;
  started : float;
  mu : Mutex.t;
  mutable total : int;
  mutable done_ : int;
  mutable painted : bool;  (* a live frame is on screen *)
  mutable last_paint : float;
  mutable last_logged : int;
  mutable finished : bool;
}

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

(* Repaints in place: back up over the previous frame's line, clear it,
   rewrite it. *)
let paint t ~now =
  prerr_string
    ((if t.painted then "\027[1A" else "") ^ "\r\027[K" ^ status t ~now ^ "\n");
  flush stderr;
  t.painted <- true;
  t.last_paint <- now

let log_line t ~now =
  prerr_endline (status t ~now);
  t.last_logged <- t.done_

let create ?enabled ~label ~total () =
  let tty = Unix.isatty Unix.stderr in
  let mode =
    match enabled with
    | Some false -> Off
    | Some true -> if tty then Live else Log
    | None -> if tty then Live else Off
  in
  {
    label;
    mode;
    started = Unix.gettimeofday ();
    mu = Mutex.create ();
    total = max 0 total;
    done_ = 0;
    painted = false;
    last_paint = 0.;
    last_logged = -1;
    finished = false;
  }

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
