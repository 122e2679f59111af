(* Overhead attribution from the flight rings: the Begin/End pairs the
   rings already hold are folded into flamegraph-style stacks, so there
   is one region recorder and profiling costs what tracing costs.

   Attribution rule: a span's *self* time is its wall time minus the
   wall time of the spans inside it, so sibling totals are additive and
   a folded stack sums to the spanned wall clock.  Paths are
   semicolon-joined phase names ("chunk;cell"), the folded-stack format
   flamegraph.pl and speedscope consume. *)

type frame = {
  f_path : string;  (* folded path including this span *)
  f_start : float;
  mutable f_child : float;  (* seconds spent in spans inside this one *)
}

(* Weights summed by key, keys in first-seen order. *)
let sum_in_order pairs =
  let totals = Hashtbl.create 16 in
  let order_rev = ref [] in
  List.iter
    (fun (key, v) ->
      match Hashtbl.find_opt totals key with
      | Some r -> r := !r +. v
      | None ->
          Hashtbl.add totals key (ref v);
          order_rev := key :: !order_rev)
    pairs;
  List.rev_map (fun key -> (key, !(Hashtbl.find totals key))) !order_rev

(* Each ring's completed spans in completion order, slot by slot, so
   paths keep slot 0's first-completion order, then each later slot's
   new paths. *)
let fold rings =
  let done_rev = ref [] in
  Array.iter
    (fun ring ->
      let stack = ref [] in
      Flight.iter_balanced
        (fun (e : Flight.event) ->
          match (e.Flight.kind, !stack) with
          | Flight.Begin, open_ ->
              let name = Chrome.phase_of e.Flight.name in
              let f_path =
                match open_ with [] -> name | f :: _ -> f.f_path ^ ";" ^ name
              in
              stack := { f_path; f_start = e.Flight.ts; f_child = 0. } :: open_
          | Flight.End, f :: rest ->
              let elapsed = e.Flight.ts -. f.f_start in
              (match rest with
              | [] -> ()
              | parent :: _ -> parent.f_child <- parent.f_child +. elapsed);
              done_rev :=
                (f.f_path, Float.max 0. (elapsed -. f.f_child)) :: !done_rev;
              stack := rest
          | (Flight.End | Flight.Instant | Flight.Sample), _ -> ())
        ring)
    rings;
  sum_in_order (List.rev !done_rev)

(* --- folded-stack text format ------------------------------------------ *)

(* One "path µs" line per region, self time in integer microseconds —
   directly consumable by flamegraph.pl / speedscope. *)
let to_folded_string rows =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, seconds) ->
      Buffer.add_string buf path;
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (string_of_int (int_of_float ((seconds *. 1e6) +. 0.5)));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

exception Malformed of string

(* Inverse of [to_folded_string]: weights come back as seconds. *)
let parse_folded content =
  let parse_line lineno line =
    match String.rindex_opt line ' ' with
    | None -> raise (Malformed (Printf.sprintf "line %d: no weight" lineno))
    | Some i -> (
        let path = String.sub line 0 i in
        let weight =
          String.sub line (i + 1) (String.length line - i - 1)
        in
        if String.equal path "" then
          raise (Malformed (Printf.sprintf "line %d: empty path" lineno));
        match int_of_string_opt weight with
        | Some us -> (path, float_of_int us /. 1e6)
        | None ->
            raise
              (Malformed
                 (Printf.sprintf "line %d: weight %S is not an integer"
                    lineno weight)))
  in
  let rows = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if not (String.equal line "") then
        rows := parse_line (i + 1) line :: !rows)
    (String.split_on_char '\n' content);
  List.rev !rows

(* Raw-content sniff for [pift report], like [Sink.looks_like_dot]: the
   first non-blank line must be "token ... token <integer>" and not look
   like JSON or DOT. *)
let looks_like_folded content =
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
  (not (String.equal line ""))
  && (not (line.[0] = '{' || line.[0] = '['))
  &&
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
      i > 0
      && int_of_string_opt
           (String.sub line (i + 1) (String.length line - i - 1))
         <> None

(* --- per-subsystem breakdown ------------------------------------------- *)

let leaf path =
  match String.rindex_opt path ';' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* Group self time by phase name (the last path segment): every
   appearance of e.g. "record" contributes to one subsystem row whatever
   it was nested under. *)
let breakdown rows =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. rows in
  let by_share =
    List.sort
      (fun (_, a) (_, b) -> compare (b : float) a)
      (sum_in_order (List.map (fun (path, v) -> (leaf path, v)) rows))
  in
  List.map
    (fun (key, v) ->
      (key, v, if total > 0. then 100. *. v /. total else 0.))
    by_share

let render ?(source = "") rows ppf () =
  Format.fprintf ppf "== overhead attribution%s ==@."
    (if String.equal source "" then "" else Printf.sprintf " (%s)" source);
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. rows in
  Format.fprintf ppf "@[<v>%d regions, %.1f ms attributed@,"
    (List.length rows) (1000. *. total);
  let rows_b = breakdown rows in
  if rows_b <> [] then begin
    Format.fprintf ppf "@,%-20s %12s %8s@," "subsystem" "self ms" "share";
    List.iter
      (fun (name, seconds, pct) ->
        Format.fprintf ppf "%-20s %12.2f %7.1f%%@," name (1000. *. seconds)
          pct)
      rows_b
  end;
  let hottest =
    List.filteri
      (fun i _ -> i < 8)
      (List.sort (fun (_, a) (_, b) -> compare (b : float) a) rows)
  in
  if hottest <> [] then begin
    Format.fprintf ppf "@,hottest stacks (self time):@,";
    List.iter
      (fun (path, seconds) ->
        Format.fprintf ppf "  %-44s %10.2f ms@," path (1000. *. seconds))
      hottest
  end;
  Format.fprintf ppf "@]@."
