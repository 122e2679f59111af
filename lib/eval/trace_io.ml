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
   instead of a decode exception from half-way inside the stream.  The
   magic check, the framing, its limits and the field decoders are
   [Pift_util.Wire]'s record layer, shared with the snapshot format. *)

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

let to_channel_binary (t : Recorded.t) oc =
  output_string oc binary_magic;
  let header = Buffer.create 64 in
  Wire.add_string header t.Recorded.name;
  Wire.add_varint header t.Recorded.pid;
  Wire.add_varint header t.Recorded.bytecodes;
  Buffer.output_buffer oc header;
  let w = Wire.writer oc in
  let payload = Wire.payload w in
  let prev_seq = ref 0 and prev_k = ref 0 and prev_lo = ref 0 in
  let add_seq seq =
    Wire.add_svarint payload (seq - !prev_seq);
    prev_seq := seq
  in
  let add_range r =
    Wire.add_svarint payload (Range.lo r - !prev_lo);
    prev_lo := Range.lo r;
    Wire.add_varint payload (Range.length r)
  in
  let put_marker mseq = function
    | Recorded.Source { kind; range } ->
        Buffer.add_char payload (Char.chr tag_source);
        add_seq mseq;
        Wire.add_string payload kind;
        add_range range;
        Wire.emit w
    | Recorded.Sink { kind; ranges } ->
        Buffer.add_char payload (Char.chr tag_sink);
        add_seq mseq;
        Wire.add_string payload kind;
        Wire.add_varint payload (List.length ranges);
        List.iter add_range ranges;
        Wire.emit w
  in
  let put_event (e : Event.t) =
    let tag =
      match e.Event.access with
      | Event.Load _ -> tag_load
      | Event.Store _ -> tag_store
      | Event.Other -> tag_other
    in
    Buffer.add_char payload (Char.chr tag);
    add_seq e.Event.seq;
    Wire.add_svarint payload (e.Event.k - !prev_k);
    prev_k := e.Event.k;
    Wire.add_varint payload e.Event.pid;
    (match e.Event.access with
    | Event.Load r | Event.Store r -> add_range r
    | Event.Other -> ());
    Wire.emit w
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

(* --- block decoding ------------------------------------------------------ *)

type stop = Full | Past | Marker | Ended

type block = {
  mutable bk_rows : int array;
  mutable bk_next : int;
  mutable bk_end : int;
  mutable bk_budget : int;
  mutable bk_bound : int;
  mutable bk_shift : int;
}

let block () =
  {
    bk_rows = [||];
    bk_next = 0;
    bk_end = 0;
    bk_budget = 0;
    bk_bound = max_int;
    bk_shift = 0;
  }

let width = Row.width

(* The record just decoded into the row at [o] = [bk_next], its pid
   already shifted: [Past] if its seq is past the bound (left there,
   not counted); otherwise it takes an item of the budget, and a
   non-memory record joins the row before it (at [o > 0]) when that
   row counts the same pid's non-memory records ([Row.fold]'s rule, inline here so
   the decode loop makes no call for it), leaving its own row free.
   [Full] means go on. *)
let[@inline] place bk rows o =
  let seq = rows.(o + 2) in
  if seq > bk.bk_bound then Past
  else begin
    bk.bk_budget <- bk.bk_budget - 1;
    let tag = rows.(o) and p = o - width in
    if
      tag = Row.tag_other && o > 0
      && rows.(p) = Row.tag_other
      && rows.(p + 1) = rows.(o + 1)
    then begin
      if seq > rows.(p + 2) then rows.(p + 2) <- seq;
      rows.(p + 3) <- rows.(o + 3);
      rows.(p + 5) <- rows.(p + 5) + 1;
      Full
    end
    else begin
      bk.bk_next <- o + width;
      if tag = Row.tag_item then Marker else Full
    end
  end

(* --- binary parsing ------------------------------------------------------ *)

(* Pull-side decoder state: the record cursor plus the delta baselines.
   The decode loop is a top-level function over this record and the
   block, so decoding an event record allocates nothing: it writes a
   row.  A marker record allocates its value. *)
type bin_reader = {
  br_c : Wire.cursor;
  br_pid : int;  (* the header pid, the pid of every marker row *)
  mutable br_prev_seq : int;
  mutable br_prev_k : int;
  mutable br_prev_lo : int;
  mutable br_marker : Recorded.marker;  (* of the last marker row *)
}

let no_marker = Recorded.Sink { kind = ""; ranges = [] }

let[@inline] byte_at buf i = Char.code (Bytes.unsafe_get buf i)

(* [Wire.next]'s and [Wire.varint]'s common cases, taken here so that
   the decode loop calls into [Wire] only for what they leave: a longer
   or unbuffered length, a multi-byte field, end of stream and every
   failure. *)
let[@inline] frame (c : Wire.cursor) =
  let lo = c.lo in
  let len = if lo < c.hi then byte_at c.buf lo else 0 in
  if len > 0 && len < 0x80 && lo + 1 + len <= c.hi then begin
    c.record <- c.record + 1;
    c.pos <- lo + 2;
    c.limit <- lo + 1 + len;
    c.lo <- lo + 1 + len;
    byte_at c.buf (lo + 1)
  end
  else Wire.next c

let[@inline] field (c : Wire.cursor) =
  let pos = c.pos in
  let b =
    if pos < c.limit then byte_at c.buf pos else 0x80
  in
  if b < 0x80 then begin
    c.pos <- pos + 1;
    b
  end
  else Wire.varint c

(* Zigzag decoding (0, 1, 2, 3 → 0, -1, 1, -2). *)
let[@inline] unzigzag z = (z lsr 1) lxor -(z land 1)

let[@inline] sfield c = unzigzag (field c)

let[@inline] finish (c : Wire.cursor) = if c.pos <> c.limit then Wire.finish c

(* A range start and length [Range.of_len] would refuse fail with its
   message, without building the range. *)
let range_fail c lo len =
  try ignore (Range.of_len lo len) with Invalid_argument msg -> Wire.fail c msg

let[@inline] check_range c lo len =
  if len <= 0 || lo < 0 || lo + len - 1 < lo then range_fail c lo len

let br_range br =
  let c = br.br_c in
  br.br_prev_lo <- br.br_prev_lo + sfield c;
  let lo = br.br_prev_lo and len = field c in
  check_range c lo len;
  Range.of_len lo len

(* A marker record's fields, after its tag: its value goes to
   [br_marker] and its seq is returned.  Any other tag fails. *)
let bin_marker br tag =
  let c = br.br_c in
  let len = Wire.remaining c + 1 in
  if tag <> tag_source && tag <> tag_sink then Wire.unknown_tag c tag;
  br.br_prev_seq <- br.br_prev_seq + sfield c;
  let kind = Wire.string c "truncated kind" in
  if tag = tag_source then begin
    let range = br_range br in
    br.br_marker <- Recorded.Source { kind; range }
  end
  else begin
    let nranges = field c in
    if nranges < 0 || nranges > len then Wire.fail c "implausible range count";
    let ranges = List.init nranges (fun _ -> br_range br) in
    br.br_marker <- Recorded.Sink { kind; ranges }
  end;
  br.br_prev_seq

(* Magic + header, eagerly; the returned reader is positioned at the
   first record. *)
let bin_open ic =
  let c = Wire.open_cursor ~what:"Trace_io" ~magic:binary_magic ic in
  let name_len = Wire.header_varint c in
  if name_len < 0 || name_len > Wire.max_record_payload then
    Wire.fail c "implausible name length";
  let h_name = Wire.header_bytes c name_len "truncated header" in
  let h_pid = Wire.header_varint c in
  let h_bytecodes = Wire.header_varint c in
  ( { h_name; h_pid; h_bytecodes },
    {
      br_c = c;
      br_pid = h_pid;
      br_prev_seq = 0;
      br_prev_k = 0;
      br_prev_lo = 0;
      br_marker = no_marker;
    } )

(* The PIFTBIN1 decoder: records into consecutive rows of the block
   (the [Row] layout; the binary tags of load, store and other are
   [Row]'s, and an "other" record is a counted row of 1) until a stop
   of {!read_rows}.  A marker becomes a [Row.tag_item] row carrying the
   header pid, its value left in [br_marker].  [Ended] only on EOF
   exactly at a record boundary; anything else fails with the record
   number.  A record is placed only once all its fields and its length
   have checked out, so a failure leaves the rows before it whole. *)
let rec bin_rows br bk =
  let o = bk.bk_next in
  if o >= bk.bk_end || bk.bk_budget <= 0 then Full
  else begin
    let c = br.br_c and rows = bk.bk_rows in
    let tag = frame c in
    if tag < 0 then Ended
    else begin
      if tag <= tag_other then begin
        let seq = br.br_prev_seq + sfield c in
        br.br_prev_seq <- seq;
        let k = br.br_prev_k + sfield c in
        br.br_prev_k <- k;
        let pid = field c in
        if tag = tag_other then begin
          rows.(o + 4) <- 0;
          rows.(o + 5) <- 1
        end
        else begin
          let lo = br.br_prev_lo + sfield c in
          br.br_prev_lo <- lo;
          let len = field c in
          check_range c lo len;
          rows.(o + 4) <- lo;
          rows.(o + 5) <- len
        end;
        finish c;
        rows.(o) <- tag;
        rows.(o + 1) <- pid + bk.bk_shift;
        rows.(o + 2) <- seq;
        rows.(o + 3) <- k
      end
      else begin
        let seq = bin_marker br tag in
        finish c;
        Row.set_item rows o ~pid:(br.br_pid + bk.bk_shift) ~seq
      end;
      match place bk rows o with Full -> bin_rows br bk | stop -> stop
    end
  end

(* Any other item pull — a text trace's parsed lines, an in-memory
   stream — writes its items as rows one at a time, placed as a binary
   record is. *)
type item_rows = {
  it_next : unit -> Recorded.item option;
  it_pid : int;  (* the pid of every marker row *)
  mutable it_marker : Recorded.marker;  (* of the last marker row *)
}

let rec items_rows it bk =
  let o = bk.bk_next in
  if o >= bk.bk_end || bk.bk_budget <= 0 then Full
  else begin
    let rows = bk.bk_rows in
    match it.it_next () with
    | None -> Ended
    | Some item -> (
        (match item with
        | Recorded.Item_event e ->
            Row.set_event rows o e;
            rows.(o + 1) <- rows.(o + 1) + bk.bk_shift
        | Recorded.Item_marker (seq, m) ->
            it.it_marker <- m;
            Row.set_item rows o ~pid:(it.it_pid + bk.bk_shift) ~seq);
        match place bk rows o with Full -> items_rows it bk | stop -> stop)
  end

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
  r_row : int array;  (* one row, for {!read_row} and {!read_item} *)
  r_block : block;  (* over [r_row] *)
  mutable r_closed : bool;
}

let make_reader r_header r_decoder r_ic =
  let r_row = Array.make width 0 in
  {
    r_header;
    r_decoder;
    r_ic;
    r_row;
    r_block = { (block ()) with bk_rows = r_row };
    r_closed = false;
  }

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

let read_rows r bk =
  match r.r_decoder with
  | Bin br -> bin_rows br bk
  | Items it -> items_rows it bk

(* One record into [r_row]: at row 0 nothing folds, and the block
   keeps no bound and no shift. *)
let read_own_row r =
  let bk = r.r_block in
  bk.bk_next <- 0;
  bk.bk_end <- width;
  bk.bk_budget <- 1;
  read_rows r bk <> Ended

let read_row r rows o =
  read_own_row r
  && begin
       Array.blit r.r_row 0 rows o width;
       true
     end

let row_marker r =
  match r.r_decoder with Bin br -> br.br_marker | Items it -> it.it_marker

let read_item r =
  let row = r.r_row in
  if not (read_own_row r) then None
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
    frag_hits = 0;
    frag_misses = 0;
  }
