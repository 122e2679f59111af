module R = Registry

(* --- JSON encoding ----------------------------------------------------- *)

let json_of_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let json_of_point (labels, point) =
  let base = [ ("labels", json_of_labels labels) ] in
  match point with
  | R.P_counter v -> Json.Obj (base @ [ ("value", Json.Int v) ])
  | R.P_gauge { value; peak } ->
      Json.Obj (base @ [ ("value", Json.Float value); ("peak", Json.Float peak) ])
  | R.P_histogram { count; sum; vmax; buckets } ->
      Json.Obj
        (base
        @ [
            ("count", Json.Int count);
            ("sum", Json.Int sum);
            ("max", Json.Int vmax);
            ( "buckets",
              Json.List
                (List.map
                   (fun (ub, n) -> Json.List [ Json.Int ub; Json.Int n ])
                   buckets) );
          ])

let json_of_sample (s : R.sample) =
  Json.Obj
    [
      ("name", Json.String s.R.s_name);
      ("kind", Json.String (R.kind_to_string s.R.s_kind));
      ("help", Json.String s.R.s_help);
      ("points", Json.List (List.map json_of_point s.R.s_points));
    ]

(* Spans arrive as folded profile rows (path, self seconds) and are
   nested by path: a node's first row places it, in row order, and its
   seconds are its own self time plus its descendants', which is the
   wall time of the ring span the row was folded from. *)
type span = {
  sp_name : string;
  mutable sp_self : float;
  mutable sp_children_rev : span list;
}

let span_forest rows =
  let root = { sp_name = ""; sp_self = 0.; sp_children_rev = [] } in
  let child parent name =
    match
      List.find_opt
        (fun c -> String.equal c.sp_name name)
        parent.sp_children_rev
    with
    | Some c -> c
    | None ->
        let c = { sp_name = name; sp_self = 0.; sp_children_rev = [] } in
        parent.sp_children_rev <- c :: parent.sp_children_rev;
        c
  in
  List.iter
    (fun (path, self) ->
      let node =
        List.fold_left child root (String.split_on_char ';' path)
      in
      node.sp_self <- node.sp_self +. self)
    rows;
  List.rev root.sp_children_rev

let children sp = List.rev sp.sp_children_rev

let rec span_seconds sp =
  List.fold_left (fun acc c -> acc +. span_seconds c) sp.sp_self (children sp)

let rec json_of_span sp =
  Json.Obj
    [
      ("name", Json.String sp.sp_name);
      ("seconds", Json.Float (span_seconds sp));
      ("children", Json.List (List.map json_of_span (children sp)));
    ]

let snapshot_to_json ?(run = "") ?(spans = []) samples =
  let fields =
    (if String.equal run "" then [] else [ ("run", Json.String run) ])
    @ [
        ("metrics", Json.List (List.map json_of_sample samples));
        ("spans", Json.List (List.map json_of_span (span_forest spans)));
      ]
  in
  Json.Obj fields

let write_jsonl oc json =
  output_string oc (Json.to_string json);
  output_char oc '\n'

(* --- JSON decoding (pift report / tests) ------------------------------- *)

exception Malformed of string

(* Format sniffing for [pift report]: decide by the keys that are
   present, never by the ones that aren't, so files from newer builds
   with extra top-level fields still classify — and genuinely foreign
   objects are reported as skippable rather than as hard errors. *)
type file_kind =
  | Metrics_snapshot
  | Trace
  | Flow_graph
  | Attribution
  | Telemetry
  | Unknown of string list

(* Provenance exports carry both their own handle and ["traceEvents"]
   (flow-graph files are valid Perfetto traces), so the specific keys
   must win over the generic ones. *)
let classify = function
  | Json.Obj fields ->
      if List.mem_assoc "pift_flow_graph" fields then Flow_graph
      else if List.mem_assoc "pift_attribution" fields then Attribution
      else if List.mem_assoc "pift_telemetry" fields then Telemetry
      else if List.mem_assoc "metrics" fields then Metrics_snapshot
      else if List.mem_assoc "traceEvents" fields then Trace
      else Unknown (List.map fst fields)
  | _ -> Unknown []

(* DOT exports are not JSON at all; [pift report] sniffs them on raw
   file content before attempting a parse. *)
let looks_like_dot content =
  let rec first_line i =
    if i >= String.length content then ""
    else
      match String.index_from_opt content i '\n' with
      | Some j ->
          let line = String.trim (String.sub content i (j - i)) in
          if String.equal line "" then first_line (j + 1) else line
      | None -> String.trim (String.sub content i (String.length content - i))
  in
  let line = first_line 0 in
  String.length line >= 7 && String.equal (String.sub line 0 7) "digraph"

let get ~ctx what = function
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "%s: missing %s" ctx what))

let labels_of_json j =
  match j with
  | Json.Obj fields ->
      List.map
        (fun (k, v) ->
          (k, get ~ctx:"labels" "string value" (Json.to_str v)))
        fields
  | _ -> raise (Malformed "labels: expected object")

let point_of_json ~kind j =
  let labels =
    match Json.member "labels" j with
    | Some l -> labels_of_json l
    | None -> []
  in
  let point =
    match kind with
    | R.Counter_kind ->
        R.P_counter
          (get ~ctx:"counter point" "value"
             (Option.bind (Json.member "value" j) Json.to_int))
    | R.Gauge_kind ->
        R.P_gauge
          {
            value =
              get ~ctx:"gauge point" "value"
                (Option.bind (Json.member "value" j) Json.to_float);
            peak =
              get ~ctx:"gauge point" "peak"
                (Option.bind (Json.member "peak" j) Json.to_float);
          }
    | R.Histogram_kind ->
        let int_field name =
          get ~ctx:"histogram point" name
            (Option.bind (Json.member name j) Json.to_int)
        in
        let buckets =
          List.map
            (fun pair ->
              match Json.to_list pair with
              | Some [ ub; n ] ->
                  ( get ~ctx:"bucket" "bound" (Json.to_int ub),
                    get ~ctx:"bucket" "count" (Json.to_int n) )
              | Some _ | None -> raise (Malformed "bucket: expected pair"))
            (get ~ctx:"histogram point" "buckets"
               (Option.bind (Json.member "buckets" j) Json.to_list))
        in
        R.P_histogram
          { count = int_field "count"; sum = int_field "sum";
            vmax = int_field "max"; buckets }
  in
  (labels, point)

let kind_of_string = function
  | "counter" -> R.Counter_kind
  | "gauge" -> R.Gauge_kind
  | "histogram" -> R.Histogram_kind
  | s -> raise (Malformed ("unknown metric kind " ^ s))

let sample_of_json j : R.sample =
  let str name =
    get ~ctx:"metric" name (Option.bind (Json.member name j) Json.to_str)
  in
  let kind = kind_of_string (str "kind") in
  {
    R.s_name = str "name";
    s_help = (match Json.member "help" j with
             | Some h -> Option.value ~default:"" (Json.to_str h)
             | None -> "");
    s_kind = kind;
    s_points =
      List.map (point_of_json ~kind)
        (get ~ctx:"metric" "points"
           (Option.bind (Json.member "points" j) Json.to_list));
  }

let samples_of_json j =
  match Option.bind (Json.member "metrics" j) Json.to_list with
  | Some metrics -> List.map sample_of_json metrics
  | None -> raise (Malformed "snapshot: missing metrics array")

let span_fields j =
  ( get ~ctx:"span" "name" (Option.bind (Json.member "name" j) Json.to_str),
    get ~ctx:"span" "seconds"
      (Option.bind (Json.member "seconds" j) Json.to_float),
    Option.value ~default:[]
      (Option.bind (Json.member "children" j) Json.to_list) )

(* The inverse of [span_forest]: one pre-order row per node, its self
   time being its seconds less its children's. *)
let rec span_rows prefix j =
  let name, seconds, children = span_fields j in
  let path = if String.equal prefix "" then name else prefix ^ ";" ^ name in
  let below =
    List.fold_left
      (fun acc c ->
        let _, s, _ = span_fields c in
        acc +. s)
      0. children
  in
  (path, seconds -. below) :: List.concat_map (span_rows path) children

let spans_of_json j =
  match Option.bind (Json.member "spans" j) Json.to_list with
  | Some spans -> List.concat_map (span_rows "") spans
  | None -> []

let run_of_json j =
  Option.value ~default:""
    (Option.bind (Json.member "run" j) Json.to_str)

(* --- Prometheus text exposition ---------------------------------------- *)

let prom_number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Label values per the exposition format: exactly backslash, double
   quote, and newline are escaped.  OCaml's %S is close but wrong — it
   also mangles tabs and non-printables into OCaml-style decimal
   escapes Prometheus parsers reject.  Adversarial marker kinds reach
   labels (the per-pid families key on externally influenced strings),
   so this must be exact. *)
let prom_escape v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
      let field (k, v) = Printf.sprintf "%s=\"%s\"" k (prom_escape v) in
      "{" ^ String.concat "," (List.map field labels) ^ "}"

let prom_header ppf ~name ~help ~kind =
  if not (String.equal help "") then
    Format.fprintf ppf "# HELP %s %s@," name help;
  Format.fprintf ppf "# TYPE %s %s@," name (R.kind_to_string kind)

let prometheus samples ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (s : R.sample) ->
      let name = s.R.s_name in
      (match s.R.s_kind with
      | R.Counter_kind | R.Gauge_kind ->
          prom_header ppf ~name ~help:s.R.s_help ~kind:s.R.s_kind
      | R.Histogram_kind ->
          prom_header ppf ~name ~help:s.R.s_help ~kind:R.Histogram_kind);
      List.iter
        (fun (labels, point) ->
          match point with
          | R.P_counter v ->
              Format.fprintf ppf "%s%s %d@," name (prom_labels labels) v
          | R.P_gauge { value; _ } ->
              Format.fprintf ppf "%s%s %s@," name (prom_labels labels)
                (prom_number value)
          | R.P_histogram { count; sum; buckets; _ } ->
              let cumulative = ref 0 in
              List.iter
                (fun (ub, n) ->
                  cumulative := !cumulative + n;
                  Format.fprintf ppf "%s_bucket%s %d@," name
                    (prom_labels (labels @ [ ("le", string_of_int ub) ]))
                    !cumulative)
                buckets;
              Format.fprintf ppf "%s_bucket%s %d@," name
                (prom_labels (labels @ [ ("le", "+Inf") ]))
                count;
              Format.fprintf ppf "%s_sum%s %d@," name (prom_labels labels)
                sum;
              Format.fprintf ppf "%s_count%s %d@," name (prom_labels labels)
                count)
        s.R.s_points;
      (* Gauge peaks are worth keeping across a run; expose them as a
         sibling gauge. *)
      match s.R.s_kind with
      | R.Gauge_kind ->
          prom_header ppf ~name:(name ^ "_peak") ~help:"" ~kind:R.Gauge_kind;
          List.iter
            (fun (labels, point) ->
              match point with
              | R.P_gauge { peak; _ } ->
                  Format.fprintf ppf "%s_peak%s %s@," name
                    (prom_labels labels) (prom_number peak)
              | R.P_counter _ | R.P_histogram _ -> ())
            s.R.s_points
      | R.Counter_kind | R.Histogram_kind -> ())
    samples;
  Format.fprintf ppf "@]@?"

(* --- human summary ----------------------------------------------------- *)

let label_suffix = function
  | [] -> ""
  | labels -> prom_labels labels

(* Each section is its own closed box: Textplot renderers end with a
   flush, which would tear an enclosing vbox apart. *)
let render ?(run = "") ?(spans = []) samples ppf () =
  Format.fprintf ppf "== metrics snapshot%s ==@."
    (if String.equal run "" then "" else Printf.sprintf " (%s)" run);
  if spans <> [] then begin
    Format.fprintf ppf "@[<v>@,spans:@,";
    let rec show depth sp =
      Format.fprintf ppf "  %s%-*s %10.3f ms@,"
        (String.make (2 * depth) ' ')
        (max 1 (28 - (2 * depth)))
        sp.sp_name
        (1000. *. span_seconds sp);
      List.iter (show (depth + 1)) (children sp)
    in
    List.iter (show 0) (span_forest spans);
    Format.fprintf ppf "@]@."
  end;
  let counters =
    List.concat_map
      (fun (s : R.sample) ->
        match s.R.s_kind with
        | R.Counter_kind ->
            List.filter_map
              (fun (labels, point) ->
                match point with
                | R.P_counter v ->
                    Some (s.R.s_name ^ label_suffix labels, float_of_int v)
                | R.P_gauge _ | R.P_histogram _ -> None)
              s.R.s_points
        | R.Gauge_kind | R.Histogram_kind -> [])
      samples
  in
  if counters <> [] then
    Pift_util.Textplot.bar_chart ~title:"counters" counters ppf ();
  let gauges =
    List.concat_map
      (fun (s : R.sample) ->
        match s.R.s_kind with
        | R.Gauge_kind ->
            List.filter_map
              (fun (labels, point) ->
                match point with
                | R.P_gauge { value; peak } ->
                    Some (s.R.s_name ^ label_suffix labels, value, peak)
                | R.P_counter _ | R.P_histogram _ -> None)
              s.R.s_points
        | R.Counter_kind | R.Histogram_kind -> [])
      samples
  in
  if gauges <> [] then begin
    Format.fprintf ppf "@[<v>gauges:@,";
    List.iter
      (fun (name, value, peak) ->
        Format.fprintf ppf "  %-40s %14s (peak %s)@," name
          (prom_number value) (prom_number peak))
      gauges;
    Format.fprintf ppf "@]@."
  end;
  let histograms =
    List.concat_map
      (fun (s : R.sample) ->
        match s.R.s_kind with
        | R.Histogram_kind ->
            List.filter_map
              (fun (labels, point) ->
                match point with
                | R.P_histogram { count; sum; vmax; _ } ->
                    Some (s.R.s_name ^ label_suffix labels, count, sum, vmax)
                | R.P_counter _ | R.P_gauge _ -> None)
              s.R.s_points
        | R.Counter_kind | R.Gauge_kind -> [])
      samples
  in
  if histograms <> [] then begin
    Format.fprintf ppf "@[<v>histograms:@,";
    List.iter
      (fun (name, count, sum, vmax) ->
        let mean =
          if count = 0 then 0. else float_of_int sum /. float_of_int count
        in
        Format.fprintf ppf "  %-40s n=%d mean=%.2f max=%d@," name count mean
          vmax)
      histograms;
    Format.fprintf ppf "@]@."
  end

let render_json j ppf () =
  let samples = samples_of_json j in
  let spans = spans_of_json j in
  render ~run:(run_of_json j) ~spans samples ppf ()

(* --- provenance exports (pift report) ----------------------------------- *)

let render_flow_graph_json j ppf () =
  let g =
    get ~ctx:"flow graph" "pift_flow_graph" (Json.member "pift_flow_graph" j)
  in
  let int name =
    get ~ctx:"flow graph" name (Option.bind (Json.member name g) Json.to_int)
  in
  let run =
    Option.value ~default:""
      (Option.bind (Json.member "run" g) Json.to_str)
  in
  Format.fprintf ppf "== provenance flow graph%s ==@."
    (if String.equal run "" then "" else Printf.sprintf " (%s)" run);
  Format.fprintf ppf "@[<v>%d nodes, %d edges@," (int "nodes") (int "edges");
  let sinks =
    Option.value ~default:[]
      (Option.bind (Json.member "sinks" g) Json.to_list)
  in
  List.iter
    (fun s ->
      let str name =
        get ~ctx:"flow sink" name
          (Option.bind (Json.member name s) Json.to_str)
      in
      let int name =
        get ~ctx:"flow sink" name
          (Option.bind (Json.member name s) Json.to_int)
      in
      let origins =
        List.filter_map Json.to_str
          (Option.value ~default:[]
             (Option.bind (Json.member "origins" s) Json.to_list))
      in
      Format.fprintf ppf "  sink %-6s @%-8d %d-node path <- %s@," (str "kind")
        (int "seq") (int "path_nodes")
        (if origins = [] then "(clean)" else String.concat ", " origins))
    sinks;
  if sinks = [] then Format.fprintf ppf "  (no flagged sinks)@,";
  Format.fprintf ppf "@]@."

let render_attribution_json j ppf () =
  let a =
    get ~ctx:"attribution" "pift_attribution"
      (Json.member "pift_attribution" j)
  in
  let int name =
    get ~ctx:"attribution" name
      (Option.bind (Json.member name a) Json.to_int)
  in
  let mean =
    Option.value ~default:0.
      (Option.bind (Json.member "mean_jaccard" a) Json.to_float)
  in
  Format.fprintf ppf "== attribution accuracy ==@.";
  Format.fprintf ppf
    "@[<v>%d true-positive sinks: %d exact, %d over, %d under, %d mixed; \
     mean Jaccard %.3f@,"
    (int "sinks") (int "exact") (int "over") (int "under") (int "mixed") mean;
  List.iter
    (fun r ->
      let str name =
        Option.value ~default:""
          (Option.bind (Json.member name r) Json.to_str)
      in
      let set name =
        match
          List.filter_map Json.to_str
            (Option.value ~default:[]
               (Option.bind (Json.member name r) Json.to_list))
        with
        | [] -> "-"
        | l -> String.concat "," l
      in
      Format.fprintf ppf "  %-22s sink %-6s %-6s pift=%s dift=%s@,"
        (str "app") (str "sink") (str "class") (set "pift") (set "dift"))
    (Option.value ~default:[]
       (Option.bind (Json.member "rows" j) Json.to_list));
  Format.fprintf ppf "@]@."
