(* Low-level binary coding shared by the trace serialisation
   (Pift_eval.Trace_io, magic PIFTBIN1) and the service snapshot format
   (Pift_service.Snapshot, magic PIFTSNAP1): LEB128 varints, zigzag
   signed coding, and a chunked channel reader that decodes straight
   out of a refill buffer.  Both formats are length-prefixed record
   streams, so they share the same failure discipline: every decode
   primitive takes a [fail] continuation that raises with the caller's
   record position. *)

let add_varint buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let add_svarint buf v = add_varint buf (zigzag v)

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

module Reader = struct
  (* Chunked channel reader: records average tens of bytes, so decoding
     straight from a large refill buffer (grown in place for oversized
     records) beats per-field channel calls by a wide margin. *)
  type t = {
    ic : in_channel;
    mutable buf : Bytes.t;
    mutable lo : int;  (* next unread byte *)
    mutable hi : int;  (* end of valid bytes *)
    mutable eof : bool;
  }

  let create ic =
    { ic; buf = Bytes.create 16384; lo = 0; hi = 0; eof = false }

  let refill r =
    if not r.eof then begin
      let live = r.hi - r.lo in
      if live > 0 && r.lo > 0 then Bytes.blit r.buf r.lo r.buf 0 live;
      r.lo <- 0;
      r.hi <- live;
      let n = input r.ic r.buf r.hi (Bytes.length r.buf - r.hi) in
      if n = 0 then r.eof <- true else r.hi <- r.hi + n
    end

  (* Whether [n] contiguous bytes can be buffered (growing the buffer
     when a record is larger than a chunk). *)
  let has r n =
    if Bytes.length r.buf < n then begin
      let grown = Bytes.create (max n (2 * Bytes.length r.buf)) in
      Bytes.blit r.buf r.lo grown 0 (r.hi - r.lo);
      r.buf <- grown;
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    while r.hi - r.lo < n && not r.eof do
      refill r
    done;
    r.hi - r.lo >= n

  let byte r =
    if r.lo >= r.hi then refill r;
    if r.lo >= r.hi then -1
    else begin
      let b = Char.code (Bytes.unsafe_get r.buf r.lo) in
      r.lo <- r.lo + 1;
      b
    end

  (* Header fields and record length prefixes.  [first_eof_ok]
     distinguishes the clean end of the stream (EOF where a record
     would start) from truncation inside a varint.  Varints are capped
     at 9 bytes (63 value bits) so corrupt input cannot loop.  The loop
     is a top-level function over its state, so a decode allocates
     nothing; [fail] is only called on the failure path. *)
  let rec varint_from fail r ~first_eof_ok shift acc =
    match byte r with
    | -1 ->
        if shift = 0 && first_eof_ok then raise End_of_file
        else fail "truncated varint"
    | b ->
        if shift > 56 && b > 0x7f then fail "varint overflow"
        else begin
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b < 0x80 then acc
          else varint_from fail r ~first_eof_ok (shift + 7) acc
        end

  let varint ?(first_eof_ok = false) fail r =
    varint_from fail r ~first_eof_ok 0 0
end
