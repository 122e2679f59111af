module Range = Pift_util.Range
module Wire = Pift_util.Wire
module Event = Pift_trace.Event
module Trace = Pift_trace.Trace
module Row = Pift_trace.Row

let magic = "PIFT-TRACE 1"
let binary_magic = "PIFTBIN1"

type format = Text | Binary

let format_to_string = function Text -> "text" | Binary -> "binary"

let format_of_string = function
  | "text" -> Some Text
  | "binary" -> Some Binary
  | _ -> None

(* Marker kinds are user-controlled strings embedded in a
   space-separated record format.  A kind containing a space used to
   serialize fine and then fail on load — "unrecognised record" for SRC
   (too many fields), a silently truncated kind for SNK (the tail parsed
   as ranges).  Percent-escape the delimiters at write time instead;
   kinds without them round-trip byte-identically, so old traces still
   load. *)
let escape_kind kind =
  let needs_escape = function ' ' | '%' | '\n' | '\r' -> true | _ -> false in
  if String.exists needs_escape kind then begin
    let buf = Buffer.create (String.length kind + 8) in
    String.iter
      (fun c ->
        if needs_escape c then
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      kind;
    Buffer.contents buf
  end
  else kind

let write_range oc r =
  Printf.fprintf oc " %d %d" (Range.lo r) (Range.length r)

(* Events and markers in [Recorded.interleave] order: each marker after
   the last event at or before its timestamp. *)
let to_channel (t : Recorded.t) oc =
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "name %s\n" t.Recorded.name;
  Printf.fprintf oc "pid %d\n" t.Recorded.pid;
  Printf.fprintf oc "bytecodes %d\n" t.Recorded.bytecodes;
  let on_marker mseq = function
    | Recorded.Source { kind; range } ->
        Printf.fprintf oc "M %d SRC %s" mseq (escape_kind kind);
        write_range oc range;
        output_char oc '\n'
    | Recorded.Sink { kind; ranges } ->
        Printf.fprintf oc "M %d SNK %s" mseq (escape_kind kind);
        List.iter (write_range oc) ranges;
        output_char oc '\n'
  in
  let observe (e : Event.t) =
    match e.access with
    | Event.Load r ->
        Printf.fprintf oc "L %d %d %d" e.seq e.k e.pid;
        write_range oc r;
        output_char oc '\n'
    | Event.Store r ->
        Printf.fprintf oc "S %d %d %d" e.seq e.k e.pid;
        write_range oc r;
        output_char oc '\n'
    | Event.Other -> Printf.fprintf oc "O %d %d %d\n" e.seq e.k e.pid
  in
  Recorded.interleave t ~observe ~on_marker

(* --- binary format ------------------------------------------------------ *)

(* Record stream after an 8-byte magic and a varint-coded header
   (name length + bytes, pid, bytecodes):

   {v
   <varint payload-length> <payload>
   payload := tag byte, then varint fields
     0 load    dseq dk pid dlo len
     1 store   dseq dk pid dlo len
     2 other   dseq dk pid
     3 source  dseq kind-len kind-bytes dlo len
     4 sink    dseq kind-len kind-bytes nranges (dlo len)*
   v}

   [dseq]/[dk]/[dlo] are zigzag-coded deltas against the previous
   record's seq / k / range start (in stream order — the same
   event/marker interleaving the text writer emits), so consecutive
   events cost 1-byte fields almost everywhere.  Kinds are raw bytes
   behind a length — no escaping.  The length prefix bounds every
   record, so a truncated or corrupt file fails with the record number
   instead of a decode exception from half-way inside the stream. *)

let tag_load = 0
let tag_store = 1
let tag_other = 2
let tag_source = 3
let tag_sink = 4

(* The decoder writes an event's tag byte as its row's tag. *)
let () =
  assert (
    tag_load = Row.tag_load && tag_store = Row.tag_store
    && tag_other = Row.tag_other)

(* Corrupt binary traces must not be able to make the reader allocate
   or loop without bound: payloads are capped, varints are capped at 9
   bytes (63 value bits).  The varint/zigzag primitives and the chunked
   reader live in [Pift_util.Wire], shared with the service snapshot
   format. *)
let max_record_payload = 1 lsl 24
let add_varint = Wire.add_varint
let unzigzag = Wire.unzigzag
let add_svarint = Wire.add_svarint

let to_channel_binary (t : Recorded.t) oc =
  output_string oc binary_magic;
  let header = Buffer.create 64 in
  add_varint header (String.length t.Recorded.name);
  Buffer.add_string header t.Recorded.name;
  add_varint header t.Recorded.pid;
  add_varint header t.Recorded.bytecodes;
  Buffer.output_buffer oc header;
  let payload = Buffer.create 64 in
  let length_prefix = Buffer.create 8 in
  let prev_seq = ref 0 and prev_k = ref 0 and prev_lo = ref 0 in
  let emit () =
    Buffer.clear length_prefix;
    add_varint length_prefix (Buffer.length payload);
    Buffer.output_buffer oc length_prefix;
    Buffer.output_buffer oc payload;
    Buffer.clear payload
  in
  let add_seq seq =
    add_svarint payload (seq - !prev_seq);
    prev_seq := seq
  in
  let add_range r =
    add_svarint payload (Range.lo r - !prev_lo);
    prev_lo := Range.lo r;
    add_varint payload (Range.length r)
  in
  let add_kind kind =
    add_varint payload (String.length kind);
    Buffer.add_string payload kind
  in
  let put_marker mseq = function
    | Recorded.Source { kind; range } ->
        Buffer.add_char payload (Char.chr tag_source);
        add_seq mseq;
        add_kind kind;
        add_range range;
        emit ()
    | Recorded.Sink { kind; ranges } ->
        Buffer.add_char payload (Char.chr tag_sink);
        add_seq mseq;
        add_kind kind;
        add_varint payload (List.length ranges);
        List.iter add_range ranges;
        emit ()
  in
  let put_event (e : Event.t) =
    let put_mem tag r =
      Buffer.add_char payload (Char.chr tag);
      add_seq e.Event.seq;
      add_svarint payload (e.Event.k - !prev_k);
      prev_k := e.Event.k;
      add_varint payload e.Event.pid;
      add_range r;
      emit ()
    in
    match e.Event.access with
    | Event.Load r -> put_mem tag_load r
    | Event.Store r -> put_mem tag_store r
    | Event.Other ->
        Buffer.add_char payload (Char.chr tag_other);
        add_seq e.Event.seq;
        add_svarint payload (e.Event.k - !prev_k);
        prev_k := e.Event.k;
        add_varint payload e.Event.pid;
        emit ()
  in
  Recorded.interleave t ~observe:put_event ~on_marker:put_marker

let save ?(format = Text) t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      match format with
      | Text -> to_channel t oc
      | Binary -> to_channel_binary t oc)

(* --- parsing ------------------------------------------------------------- *)

let fail_line n msg = failwith (Printf.sprintf "Trace_io: line %d: %s" n msg)

let parse_int n s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail_line n ("not an integer: " ^ s)

(* A corrupt length or address must surface as a positioned Trace_io
   error, not escape as a bare [Invalid_argument "Range.of_len"] from
   deep inside the parser. *)
let range_of_len fail lo len =
  try Range.of_len lo len with Invalid_argument msg -> fail msg

let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let unescape_kind n s =
  if not (String.contains s '%') then s
  else begin
    let len = String.length s in
    let buf = Buffer.create len in
    let i = ref 0 in
    while !i < len do
      if s.[!i] <> '%' then begin
        Buffer.add_char buf s.[!i];
        incr i
      end
      else begin
        if !i + 2 >= len then fail_line n ("truncated kind escape in: " ^ s);
        (* Both chars must be hex digits — [int_of_string_opt "0x.."]
           alone accepted junk like "%1_" because underscores (and a
           second "0x") are legal inside OCaml int literals. *)
        let c1 = s.[!i + 1] and c2 = s.[!i + 2] in
        if not (is_hex_digit c1 && is_hex_digit c2) then
          fail_line n ("bad kind escape in: " ^ s);
        Buffer.add_char buf
          (Char.chr (int_of_string (Printf.sprintf "0x%c%c" c1 c2)));
        i := !i + 3
      end
    done;
    Buffer.contents buf
  end

let rec parse_ranges n = function
  | [] -> []
  | [ _ ] -> fail_line n "dangling range component"
  | lo :: len :: rest ->
      range_of_len (fail_line n) (parse_int n lo) (parse_int n len)
      :: parse_ranges n rest

type header = { h_name : string; h_pid : int; h_bytecodes : int }

(* One record line to one stream item. *)
let text_item n line =
  match String.split_on_char ' ' line with
  | [ "L"; seq; k; epid; lo; len ] ->
      Recorded.Item_event
        {
          Event.seq = parse_int n seq;
          k = parse_int n k;
          pid = parse_int n epid;
          access =
            Event.Load
              (range_of_len (fail_line n) (parse_int n lo) (parse_int n len));
        }
  | [ "S"; seq; k; epid; lo; len ] ->
      Recorded.Item_event
        {
          Event.seq = parse_int n seq;
          k = parse_int n k;
          pid = parse_int n epid;
          access =
            Event.Store
              (range_of_len (fail_line n) (parse_int n lo) (parse_int n len));
        }
  | [ "O"; seq; k; epid ] ->
      Recorded.Item_event
        {
          Event.seq = parse_int n seq;
          k = parse_int n k;
          pid = parse_int n epid;
          access = Event.Other;
        }
  | [ "M"; seq; "SRC"; kind; lo; len ] ->
      Recorded.Item_marker
        ( parse_int n seq,
          Recorded.Source
            {
              kind = unescape_kind n kind;
              range =
                range_of_len (fail_line n) (parse_int n lo) (parse_int n len);
            } )
  | "M" :: seq :: "SNK" :: kind :: rest ->
      Recorded.Item_marker
        ( parse_int n seq,
          Recorded.Sink
            { kind = unescape_kind n kind; ranges = parse_ranges n rest } )
  | _ -> fail_line n ("unrecognised record: " ^ line)

(* Streaming text front: parse magic + header eagerly, then one item per
   pull.  Nothing is accumulated — memory is one line. *)
let text_open ic =
  let line_no = ref 0 in
  let next () =
    incr line_no;
    input_line ic
  in
  (match next () with
  | l when String.equal l magic -> ()
  | _ -> fail_line !line_no "bad magic"
  | exception End_of_file -> fail_line 1 "empty file");
  let header key =
    match String.split_on_char ' ' (next ()) with
    | k :: rest when String.equal k key -> String.concat " " rest
    | _ | (exception End_of_file) ->
        fail_line !line_no ("expected header " ^ key)
  in
  let h_name = header "name" in
  let h_pid = parse_int !line_no (header "pid") in
  let h_bytecodes = parse_int !line_no (header "bytecodes") in
  let rec next_item () =
    match next () with
    | exception End_of_file -> None
    | "" -> next_item ()
    | line -> Some (text_item !line_no line)
  in
  ({ h_name; h_pid; h_bytecodes }, next_item)

(* --- binary parsing ------------------------------------------------------ *)

let fail_record n msg = failwith (Printf.sprintf "Trace_io: record %d: %s" n msg)

(* The chunked channel reader is [Wire.Reader] — shared with the
   snapshot format, which has the same length-prefixed record shape. *)
type rd = Wire.Reader.t

let rd_create = Wire.Reader.create
let rd_has = Wire.Reader.has
let rd_varint = Wire.Reader.varint

(* Pull-side decoder state: the chunk reader plus the record counter and
   the delta baselines.  The decode helpers are top-level functions over
   this record, and the error continuations are built once per reader
   or only on the failure path, so decoding an event record allocates
   nothing: it writes a row.  A marker record allocates its value. *)
type bin_reader = {
  br_rd : rd;
  br_pid : int;  (* the header pid, the pid of every marker row *)
  mutable br_record : int;
  mutable br_prev_seq : int;
  mutable br_prev_k : int;
  mutable br_prev_lo : int;
  mutable br_pos : int;  (* next payload byte *)
  mutable br_limit : int;  (* end of current payload *)
  mutable br_marker : Recorded.marker;  (* of the last marker row *)
  br_fail_next : string -> int;  (* fails naming record [br_record + 1] *)
}

let no_marker = Recorded.Sink { kind = ""; ranges = [] }
let br_fail br msg = fail_record br.br_record msg

let rec br_varint_from br shift acc =
  if br.br_pos >= br.br_limit then br_fail br "truncated record payload"
  else begin
    let b = Char.code (Bytes.unsafe_get br.br_rd.Wire.Reader.buf br.br_pos) in
    br.br_pos <- br.br_pos + 1;
    if shift > 56 && b > 0x7f then br_fail br "varint overflow"
    else begin
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then acc else br_varint_from br (shift + 7) acc
    end
  end

(* The one-byte case, nearly every field of a delta-coded record,
   without the loop's call. *)
let br_varint br =
  let pos = br.br_pos in
  let b =
    if pos < br.br_limit then
      Char.code (Bytes.unsafe_get br.br_rd.Wire.Reader.buf pos)
    else 0x80
  in
  if b < 0x80 then begin
    br.br_pos <- pos + 1;
    b
  end
  else br_varint_from br 0 0

let br_svarint br = unzigzag (br_varint br)

let br_seq br =
  br.br_prev_seq <- br.br_prev_seq + br_svarint br;
  br.br_prev_seq

(* A range's fields: the start lands in [br_prev_lo], the length is
   returned.  A pair [Range.of_len] would refuse fails with its message,
   without building the range. *)
let br_lo_len br =
  br.br_prev_lo <- br.br_prev_lo + br_svarint br;
  let lo = br.br_prev_lo and len = br_varint br in
  if len <= 0 || lo < 0 || lo + len - 1 < lo then begin
    try ignore (Range.of_len lo len) with Invalid_argument msg -> br_fail br msg
  end;
  len

let br_range br =
  let len = br_lo_len br in
  Range.of_len br.br_prev_lo len

let br_kind br =
  let klen = br_varint br in
  if klen < 0 || br.br_pos + klen > br.br_limit then br_fail br "truncated kind";
  let s = Bytes.sub_string br.br_rd.Wire.Reader.buf br.br_pos klen in
  br.br_pos <- br.br_pos + klen;
  s

(* Magic + header, eagerly; the returned reader is positioned at the
   first record. *)
let bin_open ic =
  let mlen = String.length binary_magic in
  (match really_input_string ic mlen with
  | s when String.equal s binary_magic -> ()
  | _ -> fail_record 0 "bad magic"
  | exception End_of_file -> fail_record 0 "bad magic (truncated)");
  let rd = rd_create ic in
  let fail0 = fail_record 0 in
  let name_len = rd_varint fail0 rd in
  if name_len < 0 || name_len > max_record_payload then
    fail0 "implausible name length";
  if not (rd_has rd name_len) then fail0 "truncated header";
  let h_name = Bytes.sub_string rd.Wire.Reader.buf rd.Wire.Reader.lo name_len in
  rd.Wire.Reader.lo <- rd.Wire.Reader.lo + name_len;
  let h_pid = rd_varint fail0 rd in
  let h_bytecodes = rd_varint fail0 rd in
  let rec br =
    {
      br_rd = rd;
      br_pid = h_pid;
      br_record = 0;
      br_prev_seq = 0;
      br_prev_k = 0;
      br_prev_lo = 0;
      br_pos = 0;
      br_limit = 0;
      br_marker = no_marker;
      br_fail_next = (fun msg -> fail_record (br.br_record + 1) msg);
    }
  in
  ({ h_name; h_pid; h_bytecodes }, br)

(* The next record's payload length, its bytes buffered from [rd.lo]
   on, or 0 on EOF exactly at a record boundary.  A one-byte length
   whose record is already buffered (nearly every record) takes the
   short path; anything else goes through the checked one. *)
let bin_payload br =
  let rd = br.br_rd in
  let lo = rd.Wire.Reader.lo in
  let b =
    if lo < rd.Wire.Reader.hi then
      Char.code (Bytes.unsafe_get rd.Wire.Reader.buf lo)
    else 0
  in
  if b > 0 && b < 0x80 && lo + 1 + b <= rd.Wire.Reader.hi then begin
    br.br_record <- br.br_record + 1;
    rd.Wire.Reader.lo <- lo + 1;
    b
  end
  else
    match rd_varint ~first_eof_ok:true br.br_fail_next rd with
    | exception End_of_file -> 0
    | len ->
        br.br_record <- br.br_record + 1;
        if len <= 0 then br_fail br "empty record";
        if len > max_record_payload then
          br_fail br "implausible record length";
        if not (rd_has rd len) then
          br_fail br (Printf.sprintf "truncated record (%d payload bytes)" len);
        len

(* The PIFTBIN1 decoder body: the next record into the row at [o] of
   [rows] (the [Row] layout; the binary tags of load, store and other
   are [Row]'s).  A marker becomes a [Row.tag_item] row carrying the
   header pid, its value left in [br_marker].  [false] only on EOF
   exactly at a record boundary; anything else fails with the record
   number. *)
let bin_row br rows o =
  let rd = br.br_rd in
  match bin_payload br with
  | 0 -> false
  | len ->
      br.br_pos <- rd.Wire.Reader.lo + 1;
      br.br_limit <- rd.Wire.Reader.lo + len;
      let tag = Char.code (Bytes.unsafe_get rd.Wire.Reader.buf rd.Wire.Reader.lo) in
      rd.Wire.Reader.lo <- rd.Wire.Reader.lo + len;
      if tag <= tag_other then begin
        let seq = br_seq br in
        br.br_prev_k <- br.br_prev_k + br_svarint br;
        let pid = br_varint br in
        rows.(o) <- tag;
        rows.(o + 1) <- pid;
        rows.(o + 2) <- seq;
        rows.(o + 3) <- br.br_prev_k;
        if tag = tag_other then begin
          rows.(o + 4) <- 0;
          rows.(o + 5) <- 0
        end
        else begin
          let len = br_lo_len br in
          rows.(o + 4) <- br.br_prev_lo;
          rows.(o + 5) <- len
        end
      end
      else if tag = tag_source then begin
        let seq = br_seq br in
        let kind = br_kind br in
        let range = br_range br in
        br.br_marker <- Recorded.Source { kind; range };
        Row.set_item rows o ~pid:br.br_pid ~seq
      end
      else if tag = tag_sink then begin
        let seq = br_seq br in
        let kind = br_kind br in
        let nranges = br_varint br in
        if nranges < 0 || nranges > len then
          br_fail br "implausible range count";
        let ranges = List.init nranges (fun _ -> br_range br) in
        br.br_marker <- Recorded.Sink { kind; ranges };
        Row.set_item rows o ~pid:br.br_pid ~seq
      end
      else br_fail br (Printf.sprintf "unknown record tag %d" tag);
      if br.br_pos <> br.br_limit then br_fail br "trailing bytes in record";
      true

(* Any other item pull — a text trace's parsed lines, an in-memory
   stream — writes its items as rows one at a time. *)
type item_rows = {
  it_next : unit -> Recorded.item option;
  it_pid : int;  (* the pid of every marker row *)
  mutable it_marker : Recorded.marker;  (* of the last marker row *)
}

let items_row it rows o =
  match it.it_next () with
  | None -> false
  | Some (Recorded.Item_event e) ->
      Row.set_event rows o e;
      true
  | Some (Recorded.Item_marker (seq, m)) ->
      it.it_marker <- m;
      Row.set_item rows o ~pid:it.it_pid ~seq;
      true

(* --- format autodetection ------------------------------------------------- *)

let detect_channel ic =
  let mlen = String.length binary_magic in
  let fmt =
    if in_channel_length ic < mlen then Text
    else begin
      seek_in ic 0;
      if String.equal (really_input_string ic mlen) binary_magic then Binary
      else Text
    end
  in
  seek_in ic 0;
  fmt

let detect_format path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> detect_channel ic)

(* --- streaming readers --------------------------------------------------- *)

type decoder = Bin of bin_reader | Items of item_rows

type reader = {
  r_header : header;
  r_decoder : decoder;
  r_ic : in_channel option;  (* [None] for {!of_items} *)
  r_row : int array;  (* [read_item]'s row *)
  mutable r_closed : bool;
}

let make_reader r_header r_decoder r_ic =
  { r_header; r_decoder; r_ic; r_row = Array.make Row.width 0; r_closed = false }

let item_rows it_pid it_next = Items { it_next; it_pid; it_marker = no_marker }

let open_reader path =
  let ic = open_in_bin path in
  match
    match detect_channel ic with
    | Binary ->
        let h, br = bin_open ic in
        (h, Bin br)
    | Text ->
        let h, next = text_open ic in
        (h, item_rows h.h_pid next)
  with
  | h, decoder -> make_reader h decoder (Some ic)
  | exception e ->
      close_in_noerr ic;
      raise e

let of_items h next = make_reader h (item_rows h.h_pid next) None

let read_row r rows o =
  match r.r_decoder with
  | Bin br -> bin_row br rows o
  | Items it -> items_row it rows o

let row_marker r =
  match r.r_decoder with Bin br -> br.br_marker | Items it -> it.it_marker

let read_item r =
  let row = r.r_row in
  if not (read_row r row 0) then None
  else if row.(0) = Row.tag_item then
    Some (Recorded.Item_marker (row.(2), row_marker r))
  else Some (Recorded.Item_event (Row.event row 0))

let reader_header r = r.r_header

let close_reader r =
  if not r.r_closed then begin
    r.r_closed <- true;
    Option.iter close_in_noerr r.r_ic
  end

let with_reader path f =
  let r = open_reader path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> f r)

(* The whole-trace loader is the streaming reader, drained.  A decoded
   event has no instruction, so the recording is built with [Trace.add]. *)
let load ?profile path =
  Pift_obs.Profile.span profile "trace_io" @@ fun () ->
  with_reader path @@ fun r ->
  let trace = Trace.create () in
  let markers = ref [] in
  let rec drain () =
    match read_item r with
    | None -> ()
    | Some (Recorded.Item_event e) ->
        Trace.add trace e;
        drain ()
    | Some (Recorded.Item_marker (seq, m)) ->
        markers := (seq, m) :: !markers;
        drain ()
  in
  drain ();
  let h = reader_header r in
  {
    Recorded.name = h.h_name;
    trace;
    markers = Array.of_list (List.rev !markers);
    pid = h.h_pid;
    bytecodes = h.h_bytecodes;
  }
