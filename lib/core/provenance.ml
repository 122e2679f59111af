module Range = Pift_util.Range
module Json = Pift_obs.Json
module Sset = Set.Make (String)

(* One process's origin state.  [labels.(0 .. n-1)] are its labels,
   sorted by [String.compare], and [sets.(i)] is the taint of
   [labels.(i)]; both arrays grow by doubling.

   The [w_*] fields are the window the tracker opened last on the pid:
   that load's seq and range (as [w_lo]/[w_hi], so recording it keeps
   no pointer to the caller's range), and the labels it hit, with their
   sets, in label order ([w_labels]/[w_sets].(0 .. w_n-1)).  An opening
   records only the load and marks the hit arrays [w_pending]: most
   windows are reopened before any store lands in them, so the label
   sets are probed lazily, by [resolve], before the first thing that
   reads the hit arrays ([store_tainted], [persist]) or mutates one of
   the pid's sets ([taint_source], [untaint_range]).  Until then the
   sets are as they were at the opening, so the probe finds what an
   eager one would have.  The next opening overwrites the window in
   place, so once the hit arrays have grown to the pid's label count a
   window costs no allocation.  A label registered while the window is
   open is probed after the window, so it does not join it.  The
   window's sets stay valid for its lifetime: nothing drops a pid's
   sets.  The sidecar never decides a window; it only records what
   {!Tracker} decided. *)
type proc = {
  mutable labels : string array;
  mutable sets : Store_flat.t array;
  mutable n : int;
  mutable opened : bool;  (* false until a tainted load or a restore *)
  mutable w_pending : bool;  (* the hit arrays await [resolve] *)
  mutable w_labels : string array;
  mutable w_sets : Store_flat.t array;
  mutable w_n : int;
  mutable w_seq : int;
  mutable w_lo : int;
  mutable w_hi : int;
}

type propagation = {
  p_pid : int;
  p_store_seq : int;
  p_stored : Range.t;
  p_load_seq : int;
  p_loaded : Range.t;
  p_labels : string list;
}

(* Determinism audit: nothing iterates the pid table in hashing order
   and lets that order out.  Scans within a pid walk its label array in
   label order; untainting removes the same range from independent
   per-label sets, which commutes anyway; [entries] and
   [tainted_bytes] fold the table but sort or sum what they fold.
   Every emission path goes through [labels_of]/[all_labels]/[entries]
   (all sorted), so provenance output is byte-identical across runs
   and --jobs counts.

   The state is indexed pid-first, so the scan paths (window openings,
   label lookups, untainting) touch only the probed pid's label sets:
   per-event cost tracks that process's label count, not the tenant
   population.  [cached] is [procs]'s record for [cached_pid], or
   [absent] when it has none, as in {!Store.create}. *)
type t = {
  procs : (int, proc) Hashtbl.t;
  mutable cached_pid : int;
  mutable cached : proc;
  mutable known_labels : Sset.t;
  mutable on_propagate : (propagation -> unit) option;
  mutable probes : int;
}

(* Fills unused array slots; never mutated. *)
let no_set = Store_flat.create ()

let new_proc () =
  {
    labels = [||];
    sets = [||];
    n = 0;
    opened = false;
    w_pending = false;
    w_labels = [||];
    w_sets = [||];
    w_n = 0;
    w_seq = 0;
    w_lo = 0;
    w_hi = 0;
  }

(* Stands for "no record" in the cache and on the read paths; never
   mutated, because only [proc_for]'s records are ever written. *)
let absent = new_proc ()

let create () =
  {
    procs = Hashtbl.create 4;
    cached_pid = min_int;
    cached = absent;
    known_labels = Sset.empty;
    on_propagate = None;
    probes = 0;
  }

let set_on_propagate t f = t.on_propagate <- Some f
let probes t = t.probes

(* The record of [pid], or [absent]: read paths must not grow the
   table. *)
let[@inline] find t pid =
  if pid = t.cached_pid then t.cached
  else begin
    let p = try Hashtbl.find t.procs pid with Not_found -> absent in
    t.cached_pid <- pid;
    t.cached <- p;
    p
  end

let proc_for t pid =
  let p = find t pid in
  if p != absent then p
  else begin
    let p = new_proc () in
    Hashtbl.add t.procs pid p;
    t.cached <- p;
    p
  end

(* [a] with room for [cap] elements, its first [n] kept. *)
let grow a n cap dummy =
  let b = Array.make cap dummy in
  Array.blit a 0 b 0 n;
  b

(* The index of [label] in [p]'s labels [lo .. hi-1], or [-(i + 1)]
   when it is absent and belongs at [i]. *)
let rec search p label lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare p.labels.(mid) label in
    if c = 0 then mid
    else if c < 0 then search p label (mid + 1) hi
    else search p label lo mid

let find_label p label = search p label 0 p.n

let set_for t ~pid ~label =
  let p = proc_for t pid in
  let i = find_label p label in
  if i >= 0 then p.sets.(i)
  else begin
    let i = -(i + 1) in
    if p.n = Array.length p.labels then begin
      let cap = max 4 (2 * p.n) in
      p.labels <- grow p.labels p.n cap "";
      p.sets <- grow p.sets p.n cap no_set
    end;
    Array.blit p.labels i p.labels (i + 1) (p.n - i);
    Array.blit p.sets i p.sets (i + 1) (p.n - i);
    let s = Store_flat.create () in
    p.labels.(i) <- label;
    p.sets.(i) <- s;
    p.n <- p.n + 1;
    s
  end

(* The probe an opening defers: the labels whose sets overlap the
   opening load's range, in label order. *)
let resolve p =
  if p.w_pending then begin
    p.w_pending <- false;
    if Array.length p.w_sets < p.n then begin
      p.w_labels <- Array.make (Array.length p.labels) "";
      p.w_sets <- Array.make (Array.length p.sets) no_set
    end;
    let w = ref 0 in
    for i = 0 to p.n - 1 do
      let s = p.sets.(i) in
      if Store_flat.overlaps s ~lo:p.w_lo ~hi:p.w_hi then begin
        p.w_labels.(!w) <- p.labels.(i);
        p.w_sets.(!w) <- s;
        incr w
      end
    done;
    p.w_n <- !w
  end

let taint_source t ~pid ~label r =
  t.known_labels <- Sset.add label t.known_labels;
  resolve (find t pid);
  Store_flat.add (set_for t ~pid ~label) r

let untaint_range t ~pid r =
  let p = find t pid in
  resolve p;
  t.probes <- t.probes + p.n;
  for i = 0 to p.n - 1 do
    Store_flat.remove p.sets.(i) r
  done

(* [probes] counts the visits the opening stands for, whether or not
   [resolve] ever makes them. *)
let window_opened t ~pid ~seq r =
  let p = proc_for t pid in
  t.probes <- t.probes + p.n;
  p.opened <- true;
  p.w_pending <- true;
  p.w_seq <- seq;
  p.w_lo <- Range.lo r;
  p.w_hi <- Range.hi r

let window_labels p = Array.to_list (Array.sub p.w_labels 0 p.w_n)

let store_tainted t ~pid ~seq r =
  let p = find t pid in
  if p.opened then begin
    resolve p;
    for i = 0 to p.w_n - 1 do
      Store_flat.add p.w_sets.(i) r
    done;
    match t.on_propagate with
    | None -> ()
    | Some f ->
        f
          {
            p_pid = pid;
            p_store_seq = seq;
            p_stored = r;
            p_load_seq = p.w_seq;
            p_loaded = Range.make p.w_lo p.w_hi;
            p_labels = window_labels p;
          }
  end

let labels_of t ~pid r =
  let p = find t pid in
  t.probes <- t.probes + p.n;
  let acc = ref [] in
  for i = p.n - 1 downto 0 do
    if Store_flat.mem_overlap p.sets.(i) r then acc := p.labels.(i) :: !acc
  done;
  !acc

let is_tainted t ~pid r = labels_of t ~pid r <> []

let all_labels t = Sset.elements t.known_labels

let tainted_bytes t ~label =
  Hashtbl.fold
    (fun _ p acc ->
      let i = find_label p label in
      if i >= 0 then acc + Store_flat.total_bytes p.sets.(i) else acc)
    t.procs 0

let entries t =
  List.sort
    (fun ((p1, l1), _) ((p2, l2), _) ->
      match compare (p1 : int) p2 with
      | 0 -> String.compare l1 l2
      | c -> c)
    (Hashtbl.fold
       (fun pid p acc ->
         let acc = ref acc in
         for i = p.n - 1 downto 0 do
           acc := ((pid, p.labels.(i)), Store_flat.ranges p.sets.(i)) :: !acc
         done;
         !acc)
       t.procs [])

(* --- persistence --------------------------------------------------------- *)

type persisted_window = {
  pw_pid : int;
  pw_labels : string list;
  pw_opener_seq : int;
  pw_opener_range : Range.t option;
}

type persisted = {
  ps_entries : ((int * string) * Range.t list) list;
  ps_windows : persisted_window list;
  ps_known_labels : string list;
  ps_probes : int;
}

(* Everything [labels_of] and the two window entry points depend on, in
   the deterministic orders the sorted accessors already guarantee:
   per-(pid,label) range sets, one opener per tracker window (so an
   in-flight propagation window survives a snapshot; a window no
   tainted load opened yet persists empty), the label universe (a label
   can be known yet currently hold no ranges), and the probe counter so
   observability stays continuous across a restore. *)
let persist t ~windows =
  {
    ps_entries = entries t;
    ps_windows =
      List.map
        (fun pid ->
          let p = find t pid in
          if p.opened then begin
            resolve p;
            {
              pw_pid = pid;
              pw_labels = window_labels p;
              pw_opener_seq = p.w_seq;
              pw_opener_range = Some (Range.make p.w_lo p.w_hi);
            }
          end
          else
            {
              pw_pid = pid;
              pw_labels = [];
              pw_opener_seq = 0;
              pw_opener_range = None;
            })
        windows;
    ps_known_labels = Sset.elements t.known_labels;
    ps_probes = t.probes;
  }

let restore t p =
  List.iter
    (fun ((pid, label), ranges) ->
      let s = set_for t ~pid ~label in
      List.iter (Store_flat.add s) ranges)
    p.ps_entries;
  List.iter
    (fun pw ->
      match pw.pw_opener_range with
      | None -> ()
      | Some range ->
          let pid = pw.pw_pid in
          let w_labels = Array.of_list pw.pw_labels in
          let w_sets = Array.map (fun label -> set_for t ~pid ~label) w_labels in
          let pr = proc_for t pid in
          pr.opened <- true;
          pr.w_labels <- w_labels;
          pr.w_sets <- w_sets;
          pr.w_n <- Array.length w_labels;
          pr.w_seq <- pw.pw_opener_seq;
          pr.w_lo <- Range.lo range;
          pr.w_hi <- Range.hi range)
    p.ps_windows;
  t.known_labels <- Sset.of_list p.ps_known_labels;
  t.probes <- p.ps_probes

(* --- flow graphs -------------------------------------------------------- *)

module Graph = struct
  type node_kind = N_source of string | N_load | N_store | N_sink of string

  type node = {
    id : int;
    kind : node_kind;
    pid : int;
    range : Range.t;
    seq : int;
  }

  type edge = { e_from : int; e_to : int; e_seq : int }

  type t = {
    mutable nodes_rev : node list;
    mutable node_count : int;
    index : (node_kind * int * int * int * int, node) Hashtbl.t;
    mutable edges_rev : edge list;
    mutable edge_count : int;
    eindex : (int * int * int, unit) Hashtbl.t;
  }

  let create () =
    {
      nodes_rev = [];
      node_count = 0;
      index = Hashtbl.create 32;
      edges_rev = [];
      edge_count = 0;
      eindex = Hashtbl.create 32;
    }

  let node t ~kind ~pid ~range ~seq =
    let key = (kind, pid, Range.lo range, Range.hi range, seq) in
    match Hashtbl.find_opt t.index key with
    | Some n -> n
    | None ->
        let n = { id = t.node_count; kind; pid; range; seq } in
        t.node_count <- t.node_count + 1;
        t.nodes_rev <- n :: t.nodes_rev;
        Hashtbl.add t.index key n;
        n

  let edge t ~src ~dst ~seq =
    let key = (src.id, dst.id, seq) in
    if not (Hashtbl.mem t.eindex key) then begin
      Hashtbl.add t.eindex key ();
      t.edge_count <- t.edge_count + 1;
      t.edges_rev <- { e_from = src.id; e_to = dst.id; e_seq = seq } :: t.edges_rev
    end

  let nodes t = List.rev t.nodes_rev

  let edges t =
    List.sort
      (fun a b ->
        compare (a.e_from, a.e_to, a.e_seq) (b.e_from, b.e_to, b.e_seq))
      t.edges_rev

  let node_count t = t.node_count
  let edge_count t = t.edge_count

  let kind_label = function
    | N_source l -> "source " ^ l
    | N_load -> "load"
    | N_store -> "store"
    | N_sink k -> "sink " ^ k

  let dot_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let dot_shape = function
    | N_source _ -> "shape=ellipse, style=filled, fillcolor=lightblue"
    | N_load -> "shape=box"
    | N_store -> "shape=box, style=rounded"
    | N_sink _ -> "shape=doubleoctagon, style=filled, fillcolor=lightsalmon"

  let to_dot ?(name = "pift_flow") t =
    let buf = Buffer.create 1024 in
    Printf.bprintf buf "digraph \"%s\" {\n" (dot_escape name);
    Buffer.add_string buf "  rankdir=LR;\n";
    Buffer.add_string buf "  node [fontname=\"monospace\"];\n";
    List.iter
      (fun n ->
        Printf.bprintf buf "  n%d [%s, label=\"%s\\n%s @%d\"];\n" n.id
          (dot_shape n.kind)
          (dot_escape (kind_label n.kind))
          (dot_escape (Range.to_string n.range))
          n.seq)
      (nodes t);
    List.iter
      (fun e ->
        Printf.bprintf buf "  n%d -> n%d [label=\"@%d\"];\n" e.e_from e.e_to
          e.e_seq)
      (edges t);
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  type sink_summary = {
    ss_kind : string;
    ss_seq : int;
    ss_origins : string list;
    ss_nodes : int;
  }

  (* Perfetto wants per-tid timestamps non-decreasing, so events are
     sorted by (ts, rank): node slices open (rank 0) before any flow
     event at the same timestamp (rank 1) and close after (rank 2) —
     flow starts/finishes then always fall inside the zero-width slice
     they bind to. *)
  let flow_json ?(run = "pift") ?(sinks = []) t =
    let meta name value =
      Json.Obj
        [
          ("name", Json.String name);
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String value) ]);
        ]
    in
    let items = ref [] in
    let gen = ref 0 in
    let push ts rank j =
      items := (ts, rank, !gen, j) :: !items;
      incr gen
    in
    let base ~name ~ph ~ts rest =
      Json.Obj
        ([
           ("name", Json.String name);
           ("ph", Json.String ph);
           ("pid", Json.Int 1);
           ("tid", Json.Int 0);
           ("ts", Json.Float (float_of_int ts));
         ]
        @ rest)
    in
    List.iter
      (fun n ->
        let name = kind_label n.kind in
        let args =
          [
            ( "args",
              Json.Obj
                [
                  ("range", Json.String (Range.to_string n.range));
                  ("seq", Json.Int n.seq);
                  ("node", Json.Int n.id);
                ] );
          ]
        in
        push n.seq 0 (base ~name ~ph:"B" ~ts:n.seq args);
        push n.seq 2 (base ~name ~ph:"E" ~ts:n.seq []))
      (List.sort (fun a b -> compare (a.seq, a.id) (b.seq, b.id)) (nodes t));
    let by_id = Hashtbl.create 32 in
    List.iter (fun n -> Hashtbl.replace by_id n.id n) (nodes t);
    List.iteri
      (fun i e ->
        let seq_of id = (Hashtbl.find by_id id).seq in
        let flow ph ts extra =
          base ~name:"flow" ~ph ~ts
            ([ ("cat", Json.String "flow"); ("id", Json.Int i) ] @ extra)
        in
        push (seq_of e.e_from) 1 (flow "s" (seq_of e.e_from) []);
        push (seq_of e.e_to) 1
          (flow "f" (seq_of e.e_to) [ ("bp", Json.String "e") ]))
      (edges t);
    let sorted =
      List.map
        (fun (_, _, _, j) -> j)
        (List.sort
           (fun (ts1, r1, g1, _) (ts2, r2, g2, _) ->
             compare (ts1, r1, g1) (ts2, r2, g2))
           !items)
    in
    let sink_json ss =
      Json.Obj
        [
          ("kind", Json.String ss.ss_kind);
          ("seq", Json.Int ss.ss_seq);
          ("origins", Json.List (List.map (fun l -> Json.String l) ss.ss_origins));
          ("path_nodes", Json.Int ss.ss_nodes);
        ]
    in
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            (meta "process_name" run :: meta "thread_name" "provenance flow"
            :: sorted) );
        ("displayTimeUnit", Json.String "ms");
        ( "pift_flow_graph",
          Json.Obj
            [
              ("run", Json.String run);
              ("nodes", Json.Int (node_count t));
              ("edges", Json.Int (edge_count t));
              ("sinks", Json.List (List.map sink_json sinks));
            ] );
      ]
end
