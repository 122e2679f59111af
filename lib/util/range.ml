type t = { lo : int; hi : int }

let make lo hi =
  if lo < 0 then invalid_arg "Range.make: negative address";
  if hi < lo then invalid_arg "Range.make: hi < lo";
  { lo; hi }

let of_len addr len =
  if len <= 0 then invalid_arg "Range.of_len: non-positive length";
  make addr (addr + len - 1)

let byte a = make a a
let length r = r.hi - r.lo + 1
let lo r = r.lo
let hi r = r.hi
(* Ranges are CLOSED intervals: [hi] is the last tainted byte, not one
   past it.  Everything downstream builds on this — [length] is
   [hi - lo + 1], two ranges are adjacent (coalescable into one
   canonical range, never overlapping) exactly when [a.hi + 1 = b.lo],
   and a taint set's canonical form is maximal disjoint
   non-adjacent closed ranges.  A half-open reading of [hi] silently
   shifts every one of those by one byte, so changes here must keep the
   [test_store.ml] hi+1-adjacency regression green. *)
let overlaps a b = max a.lo b.lo <= min a.hi b.hi
let adjacent a b = a.hi + 1 = b.lo || b.hi + 1 = a.lo
let contains r a = r.lo <= a && a <= r.hi
let covers a b = a.lo <= b.lo && b.hi <= a.hi

let union a b =
  if not (overlaps a b || adjacent a b) then
    invalid_arg "Range.union: disjoint ranges";
  { lo = min a.lo b.lo; hi = max a.hi b.hi }

let inter a b =
  if overlaps a b then Some { lo = max a.lo b.lo; hi = min a.hi b.hi }
  else None

let subtract a b =
  if not (overlaps a b) then [ a ]
  else begin
    let left = if b.lo > a.lo then [ { lo = a.lo; hi = b.lo - 1 } ] else [] in
    let right = if b.hi < a.hi then [ { lo = b.hi + 1; hi = a.hi } ] else [] in
    left @ right
  end

let equal a b = a.lo = b.lo && a.hi = b.hi

let compare a b =
  let c = Int.compare a.lo b.lo in
  if c <> 0 then c else Int.compare a.hi b.hi

let pp ppf r = Format.fprintf ppf "[0x%x,0x%x]" r.lo r.hi
let to_string r = Format.asprintf "%a" pp r
