module Range = Pift_util.Range
module Policy = Pift_core.Policy
module Provenance = Pift_core.Provenance
module Tracker = Pift_core.Tracker
module Graph = Provenance.Graph

type hop = {
  store_seq : int;
  stored : Range.t;
  load_seq : int;
  loaded : Range.t;
}

type flow = {
  sink_kind : string;
  sink_range : Range.t;
  hops : hop list;
  source : Range.t option;
}

type src = { src_kind : string; src_seq : int; src_range : Range.t }

(* The shared label-carrying replay: a tracker carrying a Provenance
   sidecar (per-label sets whose union equals the tracker state), whose
   propagation hook records, per in-window store, the opening load and
   the window's label set.  Both the single-chain [explain] walk and the
   [flow_graph] builder are derived from its output. *)
let provenance_replay ~policy (t : Recorded.t) =
  let prov = Provenance.create () in
  let tracker = Tracker.create ~policy ~prov () in
  let props = ref [] (* newest first *) in
  Provenance.set_on_propagate prov (fun p -> props := p :: !props);
  let pid = t.Recorded.pid in
  let sources = ref [] (* newest first *) in
  let flagged = ref [] in
  let checks = ref 0 in
  let on_marker seq = function
    | Recorded.Source { kind; range } ->
        sources := { src_kind = kind; src_seq = seq; src_range = range }
          :: !sources;
        Tracker.taint_source ~kind tracker ~pid range
    | Recorded.Sink { kind; ranges } ->
        incr checks;
        let check = !checks in
        List.iter
          (fun r ->
            (* non-empty labels iff the plain tracker flags the range
               (the Provenance union invariant) *)
            let labels = Tracker.origins_of tracker ~pid r in
            if labels <> [] then
              flagged := (check, kind, r, seq, labels) :: !flagged)
          ranges
  in
  Recorded.walk t
    ~row:(Recorded.track tracker t.Recorded.trace)
    ~marker:on_marker;
  (!props, !sources, List.rev !flagged)

let max_hops = 64

let explain ?(policy = Policy.default) t =
  let props, srcs, flagged = provenance_replay ~policy t in
  let taints =
    List.map
      (fun (p : Provenance.propagation) ->
        { store_seq = p.Provenance.p_store_seq; stored = p.Provenance.p_stored;
          load_seq = p.Provenance.p_load_seq; loaded = p.Provenance.p_loaded })
      props
  in
  let sources = List.map (fun s -> s.src_range) srcs in
  let source_for r = List.find_opt (fun s -> Range.overlaps s r) sources in
  let chain_for sink_range sink_seq =
    let rec walk target time acc n =
      if n >= max_hops then (List.rev acc, source_for target)
      else
        match source_for target with
        | Some src -> (List.rev acc, Some src)
        | None -> (
            (* the most recent propagation into [target] before [time];
               [taints] is newest-first *)
            match
              List.find_opt
                (fun h ->
                  h.store_seq <= time && Range.overlaps h.stored target)
                taints
            with
            | Some h -> walk h.loaded h.load_seq (h :: acc) (n + 1)
            | None -> (List.rev acc, None))
    in
    walk sink_range sink_seq [] 0
  in
  List.map
    (fun (_, sink_kind, sink_range, seq, _) ->
      let hops, source = chain_for sink_range seq in
      { sink_kind; sink_range; hops; source })
    flagged

let pp_flow ppf f =
  Format.fprintf ppf "@[<v>sink %s flagged at %a@," f.sink_kind Range.pp
    f.sink_range;
  List.iter
    (fun h ->
      Format.fprintf ppf
        "  <- store @%d tainted %a (window opened by load @%d of %a)@,"
        h.store_seq Range.pp h.stored h.load_seq Range.pp h.loaded)
    f.hops;
  (match f.source with
  | Some s -> Format.fprintf ppf "  <- source registration %a@," Range.pp s
  | None -> Format.fprintf ppf "  <- (chain does not reach a source)@,");
  Format.fprintf ppf "@]"

(* --- flow graphs -------------------------------------------------------- *)

type path = { p_origin : string; p_nodes : Graph.node list }

type sink_flow = {
  sf_check : int;
  sf_kind : string;
  sf_range : Range.t;
  sf_seq : int;
  sf_origins : string list;
  sf_paths : path list;
}

(* Per-origin backward walk.  At [target]/[time], the origin's taint
   came either from a source registration of that kind overlapping the
   target, or from the most recent recorded propagation whose stored
   range overlaps it and whose window carried the origin — recursing on
   that hop's loaded range at its load time.  The hop's store strictly
   follows its opening load, so the anchor sequence number decreases on
   every step and the walk terminates without a hop cap.  By the
   Provenance union invariant one of the two cases always applies, so
   every flagged sink reaches a source. *)
let flow_graph ?(policy = Policy.default) (t : Recorded.t) =
  let props, sources, flagged = provenance_replay ~policy t in
  let g = Graph.create () in
  let pid = t.Recorded.pid in
  let source_for ~origin ~time target =
    List.find_opt
      (fun s ->
        s.src_seq <= time
        && String.equal s.src_kind origin
        && Range.overlaps s.src_range target)
      sources
  in
  let hop_for ~origin ~time target =
    List.find_opt
      (fun (p : Provenance.propagation) ->
        p.Provenance.p_store_seq <= time
        && Range.overlaps p.Provenance.p_stored target
        && List.mem origin p.Provenance.p_labels)
      props
  in
  (* Returns the chain of nodes (source-first) whose last node produced
     the taint overlapping [target] at [time]. *)
  let rec walk ~origin target time =
    match source_for ~origin ~time target with
    | Some s ->
        Some
          [
            Graph.node g ~kind:(Graph.N_source origin) ~pid ~range:s.src_range
              ~seq:s.src_seq;
          ]
    | None -> (
        match hop_for ~origin ~time target with
        | None -> None
        | Some h ->
            let store_n =
              Graph.node g ~kind:Graph.N_store ~pid
                ~range:h.Provenance.p_stored ~seq:h.Provenance.p_store_seq
            in
            let load_n =
              Graph.node g ~kind:Graph.N_load ~pid
                ~range:h.Provenance.p_loaded ~seq:h.Provenance.p_load_seq
            in
            Graph.edge g ~src:load_n ~dst:store_n
              ~seq:h.Provenance.p_store_seq;
            (match
               walk ~origin h.Provenance.p_loaded h.Provenance.p_load_seq
             with
            | Some chain ->
                (match List.rev chain with
                | last :: _ ->
                    Graph.edge g ~src:last ~dst:load_n
                      ~seq:h.Provenance.p_load_seq
                | [] -> ());
                Some (chain @ [ load_n; store_n ])
            | None -> Some [ load_n; store_n ]))
  in
  let sinks =
    List.map
      (fun (check, kind, r, seq, labels) ->
        let sink_n = Graph.node g ~kind:(Graph.N_sink kind) ~pid ~range:r ~seq in
        let paths =
          List.map
            (fun origin ->
              match walk ~origin r seq with
              | Some chain ->
                  (match List.rev chain with
                  | last :: _ -> Graph.edge g ~src:last ~dst:sink_n ~seq
                  | [] -> ());
                  { p_origin = origin; p_nodes = chain @ [ sink_n ] }
              | None -> { p_origin = origin; p_nodes = [ sink_n ] })
            labels
        in
        {
          sf_check = check;
          sf_kind = kind;
          sf_range = r;
          sf_seq = seq;
          sf_origins = labels;
          sf_paths = paths;
        })
      flagged
  in
  (g, sinks)

let summaries sinks =
  List.map
    (fun sf ->
      {
        Graph.ss_kind = sf.sf_kind;
        ss_seq = sf.sf_seq;
        ss_origins = sf.sf_origins;
        ss_nodes =
          List.fold_left
            (fun acc p -> max acc (List.length p.p_nodes))
            0 sf.sf_paths;
      })
    sinks

let node_to_string (n : Graph.node) =
  Printf.sprintf "%s %s @%d"
    (Graph.kind_label n.Graph.kind)
    (Range.to_string n.Graph.range)
    n.Graph.seq

let pp_sink_flow ppf sf =
  Format.fprintf ppf "@[<v>sink %s (check #%d) flagged at %a @%d@,"
    sf.sf_kind sf.sf_check Range.pp sf.sf_range sf.sf_seq;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %s: %s@," p.p_origin
        (String.concat " -> " (List.map node_to_string p.p_nodes)))
    sf.sf_paths;
  Format.fprintf ppf "@]"
