(* Overhead attribution from the flight rings: the Begin/End pairs the
   rings already hold are folded into flamegraph-style stacks, so there
   is one region recorder and profiling costs what tracing costs.

   Attribution rule: a span's *self* time is its wall time minus the
   wall time of the spans inside it, so sibling totals are additive and
   a folded stack sums to the spanned wall clock.  Paths are
   semicolon-joined phase names ("chunk;cell"), the folded-stack
   convention flamegraph.pl and speedscope use. *)

(* Group span names into phases: everything before the first '(' or ':'
   ("cell(13,3)" -> "cell", "record:LGRoot" -> "record"). *)
let phase_of name =
  let cut = ref (String.length name) in
  String.iteri
    (fun i c -> if (c = '(' || c = ':') && i < !cut then cut := i)
    name;
  String.sub name 0 !cut

type span = {
  sp_name : string;
  sp_path : string;
  sp_depth : int;
  sp_elapsed : float;
  sp_self : float;
}

type frame = {
  f_name : string;
  f_path : string;  (* folded path including this span *)
  f_depth : int;
  f_start : float;
  mutable f_child : float;  (* seconds spent in spans inside this one *)
}

let spans iter =
  let stack = ref [] and done_rev = ref [] in
  iter (fun (e : Flight.event) ->
      match (e.Flight.kind, !stack) with
      | Flight.Begin, open_ ->
          let name = phase_of e.Flight.name in
          let f_path, f_depth =
            match open_ with
            | [] -> (name, 0)
            | f :: _ -> (f.f_path ^ ";" ^ name, f.f_depth + 1)
          in
          stack :=
            { f_name = e.Flight.name; f_path; f_depth; f_start = e.Flight.ts;
              f_child = 0. }
            :: open_
      | Flight.End, f :: rest ->
          let elapsed = e.Flight.ts -. f.f_start in
          (match rest with
          | [] -> ()
          | parent :: _ -> parent.f_child <- parent.f_child +. elapsed);
          done_rev :=
            {
              sp_name = f.f_name;
              sp_path = f.f_path;
              sp_depth = f.f_depth;
              sp_elapsed = elapsed;
              sp_self = Float.max 0. (elapsed -. f.f_child);
            }
            :: !done_rev;
          stack := rest
      | (Flight.End | Flight.Instant | Flight.Sample), _ -> ());
  List.rev !done_rev

let rows spans =
  let totals = Hashtbl.create 16 in
  let order_rev = ref [] in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt totals sp.sp_path with
      | Some r -> r := !r +. sp.sp_self
      | None ->
          Hashtbl.add totals sp.sp_path (ref sp.sp_self);
          order_rev := sp.sp_path :: !order_rev)
    spans;
  List.rev_map (fun key -> (key, !(Hashtbl.find totals key))) !order_rev

let fold rings =
  rows
    (List.concat_map
       (fun ring -> spans (fun f -> Flight.iter_balanced f ring))
       (Array.to_list rings))
