(* Overhead-attribution profiler: hierarchical timed regions folded into
   flamegraph-style stacks.  One instance per worker slot, single
   writer, so recording needs no locks.  [enter]/[leave] cost two clock
   reads plus a hashtable probe at [leave]; the [t option] wrappers keep
   un-profiled runs on a no-op branch, the same discipline as
   [?metrics]/[?flight] elsewhere.

   Attribution rule: a region's *self* time is its wall time minus the
   wall time of the regions entered beneath it, so sibling totals are
   additive and a folded stack sums to the instrumented wall clock.
   Paths are semicolon-joined region names ("pool;replay;store"),
   the folded-stack format flamegraph.pl and speedscope consume. *)

type frame = {
  f_path : string;  (* folded path including this region *)
  f_start : float;
  mutable f_child : float;  (* seconds spent in entered sub-regions *)
}

type t = {
  mutable stack : frame list;
  totals : (string, float ref) Hashtbl.t;  (* path -> self seconds *)
  mutable order_rev : string list;  (* paths in first-completion order *)
}

let create () = { stack = []; totals = Hashtbl.create 16; order_rev = [] }

let now = Unix.gettimeofday

let enter t name =
  let path =
    match t.stack with [] -> name | f :: _ -> f.f_path ^ ";" ^ name
  in
  t.stack <- { f_path = path; f_start = now (); f_child = 0. } :: t.stack

let leave t =
  match t.stack with
  | [] -> ()
  | f :: rest ->
      let elapsed = now () -. f.f_start in
      let self = Float.max 0. (elapsed -. f.f_child) in
      (match rest with
      | [] -> ()
      | parent :: _ -> parent.f_child <- parent.f_child +. elapsed);
      (match Hashtbl.find_opt t.totals f.f_path with
      | Some r -> r := !r +. self
      | None ->
          Hashtbl.add t.totals f.f_path (ref self);
          t.order_rev <- f.f_path :: t.order_rev);
      t.stack <- rest

let span p name f =
  match p with
  | None -> f ()
  | Some t ->
      enter t name;
      Fun.protect ~finally:(fun () -> leave t) f

let reset t =
  t.stack <- [];
  Hashtbl.reset t.totals;
  t.order_rev <- []

let folded t =
  List.rev_map (fun path -> (path, !(Hashtbl.find t.totals path))) t.order_rev

(* Sum self times by path across worker slots.  Paths keep slot 0's
   first-completion order, then each later slot's new paths, so the
   merged ordering is schedule-independent enough for stable reports
   (the numbers themselves are wall-clock and never byte-stable). *)
let merged ts =
  let totals = Hashtbl.create 16 in
  let order_rev = ref [] in
  Array.iter
    (fun t ->
      List.iter
        (fun (path, v) ->
          match Hashtbl.find_opt totals path with
          | Some r -> r := !r +. v
          | None ->
              Hashtbl.add totals path (ref v);
              order_rev := path :: !order_rev)
        (folded t))
    ts;
  List.rev_map (fun path -> (path, !(Hashtbl.find totals path))) !order_rev

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

(* Group self time by region name (the last path segment): every
   appearance of e.g. "store" contributes to one subsystem row whatever
   it was nested under. *)
let breakdown rows =
  let totals = Hashtbl.create 8 in
  let order_rev = ref [] in
  List.iter
    (fun (path, v) ->
      let key = leaf path in
      match Hashtbl.find_opt totals key with
      | Some r -> r := !r +. v
      | None ->
          Hashtbl.add totals key (ref v);
          order_rev := key :: !order_rev)
    rows;
  let total =
    List.fold_left (fun acc (_, v) -> acc +. v) 0. rows
  in
  let by_share =
    List.sort
      (fun (_, a) (_, b) -> compare (b : float) a)
      (List.rev_map (fun key -> (key, !(Hashtbl.find totals key))) !order_rev)
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
