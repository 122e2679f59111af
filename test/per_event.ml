(* The per-event view of a recording, as test oracles: every event
   rebuilt ([Trace.iter]) and each marker fired the old way, once the
   event stream has reached its seq.  [Recorded.walk] must give the same
   order from the rows. *)

module Trace = Pift_trace.Trace
module Event = Pift_trace.Event
module Row = Pift_trace.Row
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io

let interleave (t : Recorded.t) ~observe ~on_marker =
  let mi = ref 0 and n = Array.length t.markers in
  let until seq =
    while !mi < n && fst t.markers.(!mi) <= seq do
      let mseq, m = t.markers.(!mi) in
      on_marker mseq m;
      incr mi
    done
  in
  until 0;
  Trace.iter
    (fun e ->
      observe e;
      until e.Event.seq)
    t.trace;
  until max_int

let items t =
  let acc = ref [] in
  interleave t
    ~observe:(fun e -> acc := Recorded.Item_event e :: !acc)
    ~on_marker:(fun seq m -> acc := Recorded.Item_marker (seq, m) :: !acc);
  List.rev !acc

(* [Trace.add] of an event, through its row. *)
let add t e =
  let row = Array.make Row.width 0 in
  Row.set_event row 0 e;
  Trace.add t row 0

(* A reader over items, one row each: marker rows with the header pid. *)
let of_items (h : Trace_io.header) items =
  let rows = Array.make (List.length items * Row.width) 0 in
  List.iteri
    (fun i -> function
      | Recorded.Item_event e -> Row.set_event rows (i * Row.width) e
      | Recorded.Item_marker (seq, _) ->
          Row.set_item rows (i * Row.width) ~pid:h.Trace_io.h_pid ~seq)
    items;
  Trace_io.of_rows h rows
    (Array.of_list
       (List.filter_map
          (function
            | Recorded.Item_marker (_, m) -> Some m
            | Recorded.Item_event _ -> None)
          items))
