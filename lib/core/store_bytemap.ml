module Range = Pift_util.Range

(* One bit per byte address, in a growable bitmap.  Every operation is
   a per-byte loop — O(range length), with no cleverness to get wrong —
   which is exactly what makes it a usable oracle: the differential
   property suite checks Store_flat against it.  The bitmap is dense
   from address 0, so keep test addresses modest (the suite stays under
   a few KiB); production traces go to Store_flat. *)
type t = {
  mutable bits : Bytes.t;
  mutable max_addr : int;  (* highest address ever tainted; bounds scans *)
  mutable bytes : int;  (* population count *)
}

let create () = { bits = Bytes.make 64 '\000'; max_addr = -1; bytes = 0 }

let capacity t = Bytes.length t.bits * 8

let ensure t addr =
  if addr >= capacity t then begin
    let need = (addr / 8) + 1 in
    let cap = ref (Bytes.length t.bits) in
    while !cap < need do
      cap := !cap * 2
    done;
    let bits = Bytes.make !cap '\000' in
    Bytes.blit t.bits 0 bits 0 (Bytes.length t.bits);
    t.bits <- bits
  end

let get t a =
  a < capacity t
  && Char.code (Bytes.get t.bits (a / 8)) land (1 lsl (a mod 8)) <> 0

let set t a =
  let b = Char.code (Bytes.get t.bits (a / 8)) in
  Bytes.set t.bits (a / 8) (Char.chr (b lor (1 lsl (a mod 8))))

let clear t a =
  let b = Char.code (Bytes.get t.bits (a / 8)) in
  Bytes.set t.bits (a / 8) (Char.chr (b land lnot (1 lsl (a mod 8)) land 0xff))

let is_empty t = t.bytes = 0
let total_bytes t = t.bytes

let add t r =
  ensure t (Range.hi r);
  for a = Range.lo r to Range.hi r do
    if not (get t a) then begin
      set t a;
      t.bytes <- t.bytes + 1
    end
  done;
  if Range.hi r > t.max_addr then t.max_addr <- Range.hi r

let remove t r =
  let top = min (Range.hi r) t.max_addr in
  for a = Range.lo r to top do
    if get t a then begin
      clear t a;
      t.bytes <- t.bytes - 1
    end
  done

let mem_overlap t r =
  let top = min (Range.hi r) t.max_addr in
  let rec scan a = a <= top && (get t a || scan (a + 1)) in
  scan (Range.lo r)

let covers t r =
  Range.hi r <= t.max_addr
  &&
  let rec scan a = a > Range.hi r || (get t a && scan (a + 1)) in
  scan (Range.lo r)

(* Maximal runs of set bits, in increasing address order. *)
let ranges t =
  let out = ref [] in
  let run_start = ref (-1) in
  for a = 0 to t.max_addr do
    if get t a then begin
      if !run_start < 0 then run_start := a
    end
    else if !run_start >= 0 then begin
      out := Range.make !run_start (a - 1) :: !out;
      run_start := -1
    end
  done;
  if !run_start >= 0 then out := Range.make !run_start t.max_addr :: !out;
  List.rev !out

let cardinal t = List.length (ranges t)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Range.pp)
    (ranges t)
