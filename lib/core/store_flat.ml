module Range = Pift_util.Range

(* Invariant: entries [0 .. len) are sorted by [lo], pairwise disjoint
   and non-adjacent (so both [lo] and [hi] are strictly increasing and
   the set is the canonical list of maximal closed ranges).  [bytes]
   mirrors the entries so [total_bytes] is O(1).  Growth doubles the
   parallel arrays; removal splices in place, so there are never
   tombstones to skip on lookup. *)
type t = {
  mutable lo : int array;
  mutable hi : int array;
  mutable len : int;
  mutable bytes : int;
}

let initial_capacity = 8

let create () =
  {
    lo = Array.make initial_capacity 0;
    hi = Array.make initial_capacity 0;
    len = 0;
    bytes = 0;
  }

let is_empty t = t.len = 0
let cardinal t = t.len
let total_bytes t = t.bytes

let ensure_capacity t n =
  if Array.length t.lo < n then begin
    let cap = ref (Array.length t.lo) in
    while !cap < n do
      cap := !cap * 2
    done;
    let lo = Array.make !cap 0 and hi = Array.make !cap 0 in
    Array.blit t.lo 0 lo 0 t.len;
    Array.blit t.hi 0 hi 0 t.len;
    t.lo <- lo;
    t.hi <- hi
  end

(* Smallest index whose entry ends at or after [x]; [len] if none.  [hi]
   is strictly increasing, so this is a plain binary search. *)
let first_hi_ge t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.hi.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* Smallest index whose entry starts strictly after [x]; [len] if none. *)
let first_lo_gt t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.lo.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

(* Open a gap of [n] entries at index [i] (shifting the tail right). *)
let open_gap t i n =
  ensure_capacity t (t.len + n);
  Array.blit t.lo i t.lo (i + n) (t.len - i);
  Array.blit t.hi i t.hi (i + n) (t.len - i);
  t.len <- t.len + n

(* Close a gap of [n] entries at index [i] (shifting the tail left). *)
let close_gap t i n =
  Array.blit t.lo (i + n) t.lo i (t.len - i - n);
  Array.blit t.hi (i + n) t.hi i (t.len - i - n);
  t.len <- t.len - n

let entry_bytes t i = t.hi.(i) - t.lo.(i) + 1

let add t r =
  let l = Range.lo r and h = Range.hi r in
  (* Merge window: every entry overlapping-or-adjacent to [l, h], i.e.
     ending at or after l - 1 and starting at or before h + 1 (closed
     ranges: [a,b] and [b+1,c] are adjacent and must coalesce). *)
  let i = first_hi_ge t (l - 1) in
  let j = first_lo_gt t (h + 1) - 1 in
  if i > j then begin
    (* No neighbour to coalesce with: splice in at [i]. *)
    open_gap t i 1;
    t.lo.(i) <- l;
    t.hi.(i) <- h;
    t.bytes <- t.bytes + (h - l + 1)
  end
  else begin
    let nl = min l t.lo.(i) and nh = max h t.hi.(j) in
    let removed = ref 0 in
    for k = i to j do
      removed := !removed + entry_bytes t k
    done;
    t.lo.(i) <- nl;
    t.hi.(i) <- nh;
    if j > i then close_gap t (i + 1) (j - i);
    t.bytes <- t.bytes - !removed + (nh - nl + 1)
  end

let remove t r =
  let l = Range.lo r and h = Range.hi r in
  (* Overlap window only — adjacency does not matter for removal. *)
  let i = first_hi_ge t l in
  let j = first_lo_gt t h - 1 in
  if i <= j then begin
    let removed = ref 0 in
    for k = i to j do
      removed := !removed + entry_bytes t k
    done;
    (* Surviving pieces: a left stub of entry [i] and/or a right stub of
       entry [j].  0, 1, or 2 pieces replace the j - i + 1 old entries;
       their ends are read before the gap moves the entries. *)
    let li = t.lo.(i) and hj = t.hi.(j) in
    let left = li < l and right = hj > h in
    let np = Bool.to_int left + Bool.to_int right in
    let old = j - i + 1 in
    if np > old then open_gap t i (np - old)
    else if np < old then close_gap t i (old - np);
    if left then begin
      t.lo.(i) <- li;
      t.hi.(i) <- l - 1
    end;
    if right then begin
      let k = if left then i + 1 else i in
      t.lo.(k) <- h + 1;
      t.hi.(k) <- hj
    end;
    let kept =
      (if left then l - li else 0) + if right then hj - h else 0
    in
    t.bytes <- t.bytes - !removed + kept
  end

let[@inline] overlaps t ~lo ~hi =
  (* Last entry starting at or before the query's end; it overlaps iff
     it ends at or after the query's start. *)
  let j = first_lo_gt t hi - 1 in
  j >= 0 && t.hi.(j) >= lo

let mem_overlap t r = overlaps t ~lo:(Range.lo r) ~hi:(Range.hi r)

let covers t r =
  let j = first_lo_gt t (Range.lo r) - 1 in
  j >= 0 && t.hi.(j) >= Range.hi r

let first_overlap t r =
  let i = first_hi_ge t (Range.lo r) in
  if i < t.len && t.lo.(i) <= Range.hi r then
    Some (Range.make t.lo.(i) t.hi.(i))
  else None

let iter_overlaps f t r =
  let h = Range.hi r in
  let i = ref (first_hi_ge t (Range.lo r)) in
  while !i < t.len && t.lo.(!i) <= h do
    f (Range.make t.lo.(!i) t.hi.(!i));
    incr i
  done

let ranges t =
  List.init t.len (fun k -> Range.make t.lo.(k) t.hi.(k))

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Range.pp)
    (ranges t)
