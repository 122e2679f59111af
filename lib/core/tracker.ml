module Range = Pift_util.Range
module Event = Pift_trace.Event

type window = { mutable ltlt : int; mutable nt_used : int }

type stats = {
  taint_ops : int;
  untaint_ops : int;
  lookups : int;
  tainted_loads : int;
  max_tainted_bytes : int;
  max_ranges : int;
  events : int;
}

type t = {
  policy : Policy.t;
  store : Store.t;
  windows : (int, window) Hashtbl.t;
  (* One-entry cache beside [windows], as in {!Store.create}:
     [cached_window] is the window of [cached_pid], or [no_window] when
     that pid has none.  [release_pid] and [restore] re-resolve it. *)
  mutable cached_pid : int;
  mutable cached_window : window;
  mutable taint_ops : int;
  mutable untaint_ops : int;
  mutable lookups : int;
  mutable tainted_loads : int;
  mutable max_tainted_bytes : int;
  mutable max_ranges : int;
  mutable events : int;
  mutable last_time : int;
  prov : Provenance.t option;
}

(* LTLT <- -inf (Algorithm 1 line 8); any value with ltlt + ni < 1 works. *)
let minus_infinity = min_int / 2

(* Stands for "no window yet" in the cache; never mutated, because only
   a materialised window is ever written. *)
let no_window = { ltlt = minus_infinity; nt_used = 0 }

let create ?(policy = Policy.default) ?(store = Store.create ()) ?prov () =
  {
    prov;
    policy;
    store;
    windows = Hashtbl.create 4;
    cached_pid = min_int;
    cached_window = no_window;
    taint_ops = 0;
    untaint_ops = 0;
    lookups = 0;
    tainted_loads = 0;
    max_tainted_bytes = 0;
    max_ranges = 0;
    events = 0;
    last_time = 0;
  }

let policy t = t.policy

let[@inline] find_window t pid =
  if pid = t.cached_pid then t.cached_window
  else begin
    let w = try Hashtbl.find t.windows pid with Not_found -> no_window in
    t.cached_pid <- pid;
    t.cached_window <- w;
    w
  end

(* Re-resolve the cached pid after the table changed under it. *)
let recache t =
  t.cached_window <-
    (try Hashtbl.find t.windows t.cached_pid with Not_found -> no_window)

let window t pid =
  let w = find_window t pid in
  if w != no_window then w
  else begin
    let w = { ltlt = minus_infinity; nt_used = 0 } in
    Hashtbl.add t.windows pid w;
    t.cached_window <- w;
    w
  end

let window_used t ~pid = (find_window t pid).nt_used

(* Peaks are refreshed after every store mutation that can raise one of
   them: an add can raise both, and a remove that cuts a hole in a range
   splits it in two, raising the range count.  [release_pid] drops whole
   pids and raises neither. *)
let update_peaks t =
  let bytes = t.store.Store.tainted_bytes () in
  let count = t.store.Store.range_count () in
  if bytes > t.max_tainted_bytes then t.max_tainted_bytes <- bytes;
  if count > t.max_ranges then t.max_ranges <- count

let taint_source ?(kind = "source") t ~pid r =
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.taint_source p ~pid ~label:kind r);
  t.store.Store.add ~pid r;
  update_peaks t

let untaint_range t ~pid r =
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.untaint_range p ~pid r);
  t.store.Store.remove ~pid r;
  update_peaks t

(* Tenant eviction for a long-lived tracker: the pid's window, taint
   state and provenance sidecar state are all dropped. *)
let release_pid t ~pid =
  Hashtbl.remove t.windows pid;
  recache t;
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.release_pid p ~pid);
  t.store.Store.release_pid ~pid

let current_tainted_bytes t = t.store.Store.tainted_bytes ()
let current_ranges t = t.store.Store.range_count ()

let origins_of t ~pid r =
  match t.prov with
  | None -> []
  | Some p -> Provenance.labels_of p ~pid r

let is_tainted t ~pid r = t.store.Store.overlaps ~pid r
let tainted_ranges t ~pid = t.store.Store.ranges ~pid

(* Algorithm 1, one step per access kind, straight from the Fig. 5
   ints: [observe] dispatches an [Event.t] to these, and the service
   engine calls them from its rows, so there is one body for both.

   The provenance sidecar decides nothing: each branch below that moves
   the store tells it what was decided, so its per-label union equals
   [t.store] at every step (see Provenance) and it never changes
   verdicts — it only answers [origins_of]. *)
let[@inline] tick t ~n seq =
  t.events <- t.events + n;
  if seq > t.last_time then t.last_time <- seq

(* [n] instructions counted at once: the clock keeps the largest seq, so
   the order of a run's seqs does not matter. *)
let[@inline] on_other t ~seq ~n = tick t ~n seq

(* Lines 10–15: a load overlapping R starts (over) the window. *)
let[@inline] on_load t ~pid ~seq ~k r =
  tick t ~n:1 seq;
  t.lookups <- t.lookups + 1;
  if t.store.Store.overlaps ~pid r then begin
    t.tainted_loads <- t.tainted_loads + 1;
    let w = window t pid in
    w.ltlt <- k;
    w.nt_used <- 0;
    match t.prov with
    | None -> ()
    | Some p -> Provenance.window_opened p ~pid ~seq r
  end

(* Lines 16–23: taint inside the window, up to NT times; otherwise
   untaint (if enabled). *)
let[@inline] on_store t ~pid ~seq ~k r =
  tick t ~n:1 seq;
  let w = window t pid in
  if k <= w.ltlt + t.policy.Policy.ni && w.nt_used < t.policy.Policy.nt then begin
    t.store.Store.add ~pid r;
    (match t.prov with
    | None -> ()
    | Some p -> Provenance.store_tainted p ~pid ~seq r);
    w.nt_used <- w.nt_used + 1;
    t.taint_ops <- t.taint_ops + 1;
    update_peaks t
  end
  else if t.policy.Policy.untaint && t.store.Store.overlaps ~pid r then begin
    t.store.Store.remove ~pid r;
    (match t.prov with
    | None -> ()
    | Some p -> Provenance.untaint_range p ~pid r);
    t.untaint_ops <- t.untaint_ops + 1;
    update_peaks t
  end

let observe t (e : Event.t) =
  match e.access with
  | Event.Load r -> on_load t ~pid:e.pid ~seq:e.seq ~k:e.k r
  | Event.Store r -> on_store t ~pid:e.pid ~seq:e.seq ~k:e.k r
  | Event.Other -> on_other t ~seq:e.seq ~n:1

let stats t =
  {
    taint_ops = t.taint_ops;
    untaint_ops = t.untaint_ops;
    lookups = t.lookups;
    tainted_loads = t.tainted_loads;
    max_tainted_bytes = t.max_tainted_bytes;
    max_ranges = t.max_ranges;
    events = t.events;
  }

(* --- persistence --------------------------------------------------------- *)

type persisted = {
  p_stats : stats;
  p_last_time : int;
  p_windows : (int * int * int) list;  (* pid, ltlt, nt_used; by pid *)
  p_store : (int * Range.t list) list;  (* Store.dump *)
  p_prov : Provenance.persisted option;
}

let persist t =
  let windows =
    List.sort compare
      (Hashtbl.fold
         (fun pid w acc -> (pid, w.ltlt, w.nt_used) :: acc)
         t.windows [])
  in
  {
    p_stats = stats t;
    p_last_time = t.last_time;
    p_windows = windows;
    p_store = t.store.Store.dump ();
    p_prov =
      Option.map
        (Provenance.persist
           ~windows:(List.map (fun (pid, _, _) -> pid) windows))
        t.prov;
  }

(* Rebuild into a fresh tracker of the same policy/prov mode.
   Ranges go through the raw store [add] — not [taint_source] — so the
   provenance sidecar (restored from its own record) and the stats
   counters are not perturbed.  Peaks are ≥ current occupancy by
   invariant, so restoring stats first and calling [update_peaks] at the
   end keeps the persisted maxima. *)
let restore t p =
  t.taint_ops <- p.p_stats.taint_ops;
  t.untaint_ops <- p.p_stats.untaint_ops;
  t.lookups <- p.p_stats.lookups;
  t.tainted_loads <- p.p_stats.tainted_loads;
  t.max_tainted_bytes <- p.p_stats.max_tainted_bytes;
  t.max_ranges <- p.p_stats.max_ranges;
  t.events <- p.p_stats.events;
  t.last_time <- p.p_last_time;
  List.iter
    (fun (pid, ltlt, nt_used) ->
      Hashtbl.replace t.windows pid { ltlt; nt_used })
    p.p_windows;
  recache t;
  List.iter
    (fun (pid, ranges) -> List.iter (t.store.Store.add ~pid) ranges)
    p.p_store;
  (match (t.prov, p.p_prov) with
  | Some prov, Some pp -> Provenance.restore prov pp
  | _ -> ());
  update_peaks t
