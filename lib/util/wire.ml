(* Binary coding and record layer shared by the trace serialisation
   (Pift_eval.Trace_io, magic PIFTBIN1) and the service snapshot format
   (Pift_service.Snapshot, magic PIFTSNAP1): LEB128 varints, zigzag
   signed coding, and length-prefixed record streams.  Each format owns
   its tags and field layouts; the framing, the limits, the field
   decoders and the positioned failures ("<format>: record N: ...") are
   decided here, once. *)

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

(* Corrupt input must not be able to make a reader allocate or loop
   without bound: payloads are capped, varints are capped at 9 bytes
   (63 value bits). *)
let max_record_payload = 1 lsl 24

type writer = { oc : out_channel; payload : Buffer.t; prefix : Buffer.t }

let writer oc = { oc; payload = Buffer.create 256; prefix = Buffer.create 8 }
let payload w = w.payload

let emit w =
  Buffer.clear w.prefix;
  add_varint w.prefix (Buffer.length w.payload);
  Buffer.output_buffer w.oc w.prefix;
  Buffer.output_buffer w.oc w.payload;
  Buffer.clear w.payload

(* The record cursor: a chunked reader over a file descriptor (records
   average tens of bytes, so decoding straight from a large refill
   buffer, grown in place for oversized records, beats per-field
   channel calls by a wide margin), the record number and the current
   payload's bounds.  A record's payload is buffered whole before its
   fields are read, so they decode in place between [pos] and [limit].
   The decoders are top-level functions over this record and [fail]
   runs only on the failure path, so decoding allocates nothing.  The
   cursor reads the descriptor itself, not through an [in_channel]: a
   channel carries its own 64 KiB buffer, which the cursor's would only
   copy out of, and a service holds one cursor per open tenant. *)
type cursor = {
  fd : Unix.file_descr;
  what : string;  (* the format's error prefix *)
  mutable buf : Bytes.t;
  mutable lo : int;  (* next unread byte *)
  mutable hi : int;  (* end of valid bytes *)
  mutable eof : bool;
  mutable record : int;  (* 0 in the header, then 1, 2, ... *)
  mutable pos : int;
  mutable limit : int;
}

(* What [open_in_bin] and [input] raise, so that callers see the
   errors a channel gave them. *)
let open_file path =
  try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let rec read fd buf o n =
  match Unix.read fd buf o n with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf o n
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Unix.error_message e))

let refill c =
  if not c.eof then begin
    let live = c.hi - c.lo in
    if live > 0 && c.lo > 0 then Bytes.blit c.buf c.lo c.buf 0 live;
    c.lo <- 0;
    c.hi <- live;
    let n = read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
    if n = 0 then c.eof <- true else c.hi <- c.hi + n
  end

(* Whether [n] contiguous bytes can be buffered (growing the buffer
   when a record is larger than a chunk); when not, every byte left in
   the stream is. *)
let has c n =
  if Bytes.length c.buf < n then begin
    let grown = Bytes.create (max n (2 * Bytes.length c.buf)) in
    Bytes.blit c.buf c.lo grown 0 (c.hi - c.lo);
    c.buf <- grown;
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  while c.hi - c.lo < n && not c.eof do
    refill c
  done;
  c.hi - c.lo >= n

let fail c msg = failwith (Printf.sprintf "%s: record %d: %s" c.what c.record msg)

(* Whether the stream starts with [magic]; the cursor moves past it
   when it does.  The first refill reads it. *)
let sniff ~what ~magic fd =
  let c =
    {
      fd;
      what;
      buf = Bytes.create 16384;
      lo = 0;
      hi = 0;
      eof = false;
      record = 0;
      pos = 0;
      limit = 0;
    }
  in
  let n = String.length magic in
  let found = has c n && String.equal (Bytes.sub_string c.buf 0 n) magic in
  if found then c.lo <- n;
  (c, found)

let open_cursor ~what ~magic fd =
  match sniff ~what ~magic fd with
  | c, true -> c
  | c, false ->
      fail c
        (if c.hi < String.length magic then "bad magic (truncated)"
         else "bad magic")

let close_file fd = try Unix.close fd with Unix.Unix_error _ -> ()

let with_file path f =
  let fd = open_file path in
  Fun.protect ~finally:(fun () -> close_file fd) (fun () -> f fd)

let truncated_payload = "truncated record payload"

(* The one varint loop, over the bytes before [limit].  The 9th byte
   carries bits 56..62 and must end the varint. *)
let rec varint_from c truncated shift acc =
  if c.pos >= c.limit then fail c truncated
  else begin
    let b = Char.code (Bytes.unsafe_get c.buf c.pos) in
    c.pos <- c.pos + 1;
    if shift = 56 && b > 0x7f then fail c "varint overflow"
    else begin
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then acc else varint_from c truncated (shift + 7) acc
    end
  end

(* Header fields and record lengths are read off the stream itself: the
   loop runs over whatever of a varint's 9 bytes the stream still
   holds. *)
let header_varint c =
  ignore (has c 9);
  c.pos <- c.lo;
  c.limit <- c.hi;
  let v = varint_from c "truncated varint" 0 0 in
  c.lo <- c.pos;
  v

let header_byte c =
  if not (has c 1) then -1
  else begin
    c.lo <- c.lo + 1;
    Char.code (Bytes.get c.buf (c.lo - 1))
  end

let header_bytes c n truncated =
  if not (has c n) then fail c truncated;
  let s = Bytes.sub_string c.buf c.lo n in
  c.lo <- c.lo + n;
  s

(* [scan n]: [n] bytes from [lo] are scanned and none is a newline, so
   look at the next, refilling (and growing) the buffer when it is not
   buffered yet. *)
let line c =
  let rec scan n =
    if c.lo + n < c.hi then
      if Bytes.unsafe_get c.buf (c.lo + n) = '\n' then Some n else scan (n + 1)
    else if has c (n + 1) then scan n
    else None
  in
  let take n skip =
    let s = Bytes.sub_string c.buf c.lo n in
    c.lo <- c.lo + n + skip;
    s
  in
  match scan 0 with
  | Some n -> Some (take n 1)
  | None -> if c.hi = c.lo then None else Some (take (c.hi - c.lo) 0)

(* A one-byte length whose payload is already buffered, nearly every
   record, skips the checked read. *)
let next c =
  let lo = c.lo in
  let b = if lo < c.hi then Char.code (Bytes.unsafe_get c.buf lo) else 0 in
  let len =
    if b > 0 && b < 0x80 && lo + 1 + b <= c.hi then begin
      c.record <- c.record + 1;
      c.lo <- lo + 1;
      b
    end
    else if not (has c 1) then 0
    else begin
      c.record <- c.record + 1;
      let len = header_varint c in
      if len <= 0 then fail c "empty record";
      if len > max_record_payload then fail c "implausible record length";
      if not (has c len) then
        fail c (Printf.sprintf "truncated record (%d payload bytes)" len);
      len
    end
  in
  if len = 0 then -1
  else begin
    let lo = c.lo in
    c.pos <- lo + 1;
    c.limit <- lo + len;
    c.lo <- lo + len;
    Char.code (Bytes.unsafe_get c.buf lo)
  end

(* The one-byte case, nearly every field of a delta-coded record,
   without the loop's call. *)
let[@inline] varint c =
  let pos = c.pos in
  let b =
    if pos < c.limit then Char.code (Bytes.unsafe_get c.buf pos) else 0x80
  in
  if b < 0x80 then begin
    c.pos <- pos + 1;
    b
  end
  else varint_from c truncated_payload 0 0

let[@inline] svarint c = unzigzag (varint c)

let byte c =
  if c.pos >= c.limit then fail c truncated_payload;
  c.pos <- c.pos + 1;
  Char.code (Bytes.unsafe_get c.buf (c.pos - 1))

let string c truncated =
  let len = varint c in
  if len < 0 || len > c.limit - c.pos then fail c truncated;
  let s = Bytes.sub_string c.buf c.pos len in
  c.pos <- c.pos + len;
  s

let remaining c = c.limit - c.pos
let unknown_tag c tag = fail c (Printf.sprintf "unknown record tag %d" tag)
let finish c = if c.pos <> c.limit then fail c "trailing bytes in record"
