module Range = Pift_util.Range

let width = 6
let tag_load = 0
let tag_store = 1
let tag_other = 2
let tag_item = 3

let set_mem rows o tag range =
  rows.(o) <- tag;
  rows.(o + 4) <- Range.lo range;
  rows.(o + 5) <- Range.length range

let set_event rows o (e : Event.t) =
  rows.(o + 1) <- e.Event.pid;
  rows.(o + 2) <- e.Event.seq;
  rows.(o + 3) <- e.Event.k;
  match e.Event.access with
  | Event.Load range -> set_mem rows o tag_load range
  | Event.Store range -> set_mem rows o tag_store range
  | Event.Other ->
      rows.(o) <- tag_other;
      rows.(o + 4) <- 0;
      rows.(o + 5) <- 1

let set_item rows o ~pid ~seq =
  rows.(o) <- tag_item;
  rows.(o + 1) <- pid;
  rows.(o + 2) <- seq;
  rows.(o + 3) <- 0;
  rows.(o + 4) <- 0;
  rows.(o + 5) <- 0

let count rows o = if rows.(o) = tag_other then rows.(o + 5) else 1

let fold rows o ~pid ~seq ~k =
  if rows.(o) = tag_other && rows.(o + 1) = pid then begin
    if seq > rows.(o + 2) then rows.(o + 2) <- seq;
    rows.(o + 3) <- k;
    rows.(o + 5) <- rows.(o + 5) + 1;
    true
  end
  else false

let range rows o = Range.of_len rows.(o + 4) rows.(o + 5)

let event rows o =
  let tag = rows.(o) in
  {
    Event.seq = rows.(o + 2);
    k = rows.(o + 3);
    pid = rows.(o + 1);
    access =
      (if tag = tag_other then Event.Other
       else
         let range = range rows o in
         if tag = tag_load then Event.Load range else Event.Store range);
  }

(* Six stores beat [Array.blit]'s call for a row. *)
let blit src so dst o =
  dst.(o) <- src.(so);
  dst.(o + 1) <- src.(so + 1);
  dst.(o + 2) <- src.(so + 2);
  dst.(o + 3) <- src.(so + 3);
  dst.(o + 4) <- src.(so + 4);
  dst.(o + 5) <- src.(so + 5)
