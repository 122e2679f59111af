(** Recording serialization — the paper's offline pipeline as an artefact.

    The paper's evaluation dumps gem5 instruction traces together with the
    source/sink address ranges printed by PIFT Native, and feeds both into
    the analysis code.  This module persists a {!Recorded.t} in two
    formats, autodetected on load:

    {2 Text ([PIFT-TRACE 1])}

    A simple line-oriented format so recordings can be archived, diffed,
    and re-analysed (including by external tools):

    {v
    PIFT-TRACE 1
    name <string>
    pid <int>
    bytecodes <int>
    L <seq> <k> <pid> <lo> <len>     # load event
    S <seq> <k> <pid> <lo> <len>     # store event
    O <seq> <k> <pid>                # non-memory event
    M <seq> SRC <kind> <lo> <len>    # source registration marker
    M <seq> SNK <kind> (<lo> <len>)* # sink check marker
    v}

    {2 Binary ([PIFTBIN1])}

    A compact length-prefixed record stream for large recordings: after
    the 8-byte magic and a varint header (name, pid, bytecodes), each
    record is a varint payload length followed by a tag byte and
    LEB128-varint fields.  Sequence numbers, instruction counters, and
    range starts are zigzag-coded deltas against the previous record, so
    the common consecutive-event case costs one byte per field.  The
    length prefix bounds every record: truncated or corrupt files are
    rejected with the failing record's number.  The binary decoder
    builds no closure per record (its error continuations run only on
    the failure path) and writes an event record into an int row (see
    {!read_rows}), so it allocates nothing for one.  That is a property
    of the decoder, not of the format: the bytes above and the
    positioned error messages are the contract.

    Either format round-trips every {!Pift_trace.Event.t} and marker
    exactly — replaying a loaded recording produces byte-identical
    verdicts.  A trace file holds the Fig. 5 record only, with no
    instructions: a loaded recording supports the PIFT analysis and all
    trace statistics, and {!Recorded.replay_dift} refuses it with
    [Invalid_argument] (the register-level full-DIFT baseline needs
    instruction operands — run it on a live recording instead). *)

type format = Text | Binary

val format_to_string : format -> string

val save : ?format:format -> Recorded.t -> string -> unit
(** [save recording path] — writes the file, overwriting, its events
    and markers in {!Recorded.walk}'s order.  [format] defaults to
    [Text]. *)

val load : string -> Recorded.t
(** {!drain}s a reader over the file.  Autodetects the format from the
    magic bytes.  Raises [Failure] with a line number (text) or record
    number (binary) on malformed input. *)

(** {1 Streaming readers}

    Record-at-a-time ingestion over either format: the service engine
    multiplexes many open traces without ever materialising one, so
    resident memory is one buffered chunk (binary) or one line (text)
    per tenant, whatever the trace length.

    {b Rows.}  A reader decodes records into {!Pift_trace.Row}s: six
    ints, tag, pid, seq, k, lo, len.  A non-memory event becomes a
    counted [Row.tag_other] row of 1.  A marker becomes a
    [Row.tag_item] row with the header pid and its seq, and its value
    stays readable through {!row_marker} until the reader's next
    record.

    {b Blocks.}  {!read_rows} decodes a whole run of records in one
    call, into consecutive rows of a {!block}: the service's fill path
    hands it the engine's column batch, one call per stretch of one
    source.  On the way it folds each non-memory record into the row
    before it (not at offset 0) when that row counts the same pid's
    non-memory records
    ([Row.fold]'s rule), adds the block's pid shift to every row, and
    stops at the first of: no row room, no items left in the budget, a
    record past the seq bound, a marker written, or the end of the
    stream.  For [PIFTBIN1] the loop, with the record layer's
    one-byte length and one-byte field cases, lives in this module's
    compilation unit: under [-opaque] (dune's dev profile) no call
    inlines across modules, and a call per field was most of the
    decode cost.  Longer lengths and fields, refills and every
    positioned failure stay in {!Pift_util.Wire}.  An event record
    allocates nothing.  The text reader parses one line per row and an
    in-memory reader ({!of_rows}) copies one row per record, under the
    same stops.

    {!read_row} is the one-row case of the same call and {!read_item}
    builds a {!Recorded.item} from it, so every entry point runs one
    decoder: they deliver the same records and fail with the same
    positioned message. *)

type header = { h_name : string; h_pid : int; h_bytecodes : int }

type reader
(** An open trace positioned after its header.  Not an unbounded
    resource cache: one file descriptor until {!close_reader}. *)

val open_reader : string -> reader
(** Autodetects the format and parses the header eagerly — a bad magic
    or truncated header raises the same positioned [Failure] as {!load}
    (and the file is closed).  The file is read once, front to back, so
    a pipe works.  Records then come one {!read_row} or {!read_item} at
    a time. *)

val reader_format : reader -> format option
(** The format {!open_reader} found; [None] for an in-memory reader. *)

val of_rows : header -> int array -> Recorded.marker array -> reader
(** A reader over records already decoded, one {!Pift_trace.Row} per
    record in file order: loads and stores with their own [lo] and
    [len], [Row.tag_other] rows of 1, and [Row.tag_item] rows whose
    values are the markers, in order.  Holds no file; {!close_reader}
    only marks it closed. *)

val of_recorded : Recorded.t -> reader
(** {!of_rows} over the records a writer would save, in the same order
    ({!Recorded.walk}), each marker row with the recording's pid: it
    delivers what {!open_reader} on a {!save}d copy does. *)

type stop =
  | Full  (** no row room left, or no items left in the budget *)
  | Past
      (** the record at [bk_next] has a seq past [bk_bound]: it is
          decoded there, the reader has moved past it, and it is not
          counted *)
  | Marker  (** the last row written, before [bk_next], is a marker *)
  | Ended  (** clean end of stream: nothing more will be read *)

type block = {
  mutable bk_rows : int array;  (** where the rows go *)
  mutable bk_next : int;
      (** offset of the next row to write; advanced past each row
          written *)
  mutable bk_end : int;  (** rows are written at offsets below this *)
  mutable bk_budget : int;
      (** items left; each record placed takes one, folded or not *)
  mutable bk_bound : int;  (** the largest seq to place *)
  mutable bk_shift : int;  (** added to every row's pid *)
}
(** One {!read_rows} call's rows, limits and progress, in int offsets
    into [bk_rows] (row [r] is at [r * Row.width]).  The caller sets
    the fields and reads [bk_next] and [bk_budget] back; a block is
    reused across calls. *)

val block : unit -> block
(** An empty block: no rows, no bound ([max_int]), no shift. *)

val read_rows : reader -> block -> stop
(** Decode records, in file order, into consecutive rows of the block
    from [bk_next] on, until one of the stops.  Before each record it
    checks [bk_next < bk_end] and [bk_budget > 0] ([Full]).  A decoded
    record whose seq is past [bk_bound] is left at [bk_next]
    ([Past]).  Otherwise it takes an item of the budget; a non-memory
    record joins the row before it under the fold rule above (its own
    ints stay at [bk_next], a free row), any other record advances
    [bk_next], and a marker ends the call ([Marker]).  Malformed or
    truncated input raises [Failure] with the
    line (text) or record (binary) position, with [bk_next] and
    [bk_budget] covering every record before it, so the caller can
    deliver the rows decoded before the failure.  The failing record
    may have written part of its row. *)

val read_row : reader -> int array -> int -> bool
(** [read_row r rows o] decodes the next record, in file order, into
    the row at [o] of [rows], as recorded: {!read_rows} into the
    reader's own one-row block (row 0: no fold; no bound, no shift),
    then copied to [o].  [false] at a clean end of stream, and the row
    is left as it was.  Malformed or truncated input raises [Failure]
    with the line (text) or record (binary) position, and the row is
    left as it was; records before the corruption have already been
    delivered, so an ingester can account for partial streams. *)

val row_marker : reader -> Recorded.marker
(** The value of the last [Row.tag_item] row {!read_rows} or
    {!read_row} wrote. *)

val read_item : reader -> Recorded.item option
(** Next item in file order — the order the writers emit
    ({!Recorded.walk}): {!read_row} with the item built from the row.
    [None] at a clean end of stream; failures as {!read_row}'s. *)

val reader_header : reader -> header

val close_reader : reader -> unit
(** Idempotent. *)

val with_reader : string -> (reader -> 'a) -> 'a
(** [with_reader path f] opens, applies [f], and always closes. *)

val drain : reader -> Recorded.t
(** Every remaining record of the reader, {!read_row} by row, into a
    recording whose trace has no instructions
    ({!Pift_trace.Trace.add}); failures as {!read_row}'s. *)
