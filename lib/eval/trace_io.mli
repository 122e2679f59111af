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
    {!read_row}), so it allocates nothing for one.  That is a property
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
val format_of_string : string -> format option

val save : ?format:format -> Recorded.t -> string -> unit
(** [save recording path] — writes the file, overwriting.  [format]
    defaults to [Text]. *)

val load : ?profile:Pift_obs.Profile.t -> string -> Recorded.t
(** Drains a {!reader} into a recording whose trace has no instructions
    ({!Pift_trace.Trace.add}).  Autodetects the format from the magic
    bytes.  Raises [Failure] with a line number (text) or record number
    (binary) on malformed input.  With [profile], the whole parse is
    attributed to a ["trace_io"] region, so decode cost shows up in the
    overhead breakdown next to tracker and store time. *)

val detect_format : string -> format
(** Peeks at the magic bytes; files too short to be binary (or with any
    other leading bytes) report [Text], whose parser owns the error. *)

(** {1 Streaming readers}

    Record-at-a-time ingestion over either format: the service engine
    multiplexes many open traces without ever materialising one, so
    resident memory is one buffered chunk (binary) or one line (text)
    per tenant, whatever the trace length.

    {b Rows.}  A reader's unit is one record decoded into a
    {!Pift_trace.Row}: six ints, tag, pid, seq, k, lo, len.  A
    [PIFTBIN1] reader decodes the varints straight into the caller's
    row and allocates nothing for an event record; the service's fill
    path hands it the engine's column batch.  A non-memory event
    becomes a counted [Row.tag_other] row of 1.  A marker becomes a
    [Row.tag_item] row with the header pid and its seq, and its value
    stays readable through {!row_marker} until the reader's next record.
    The text reader and {!of_items} parse or pull an item and write it
    as a row, more slowly.  {!read_item} is a thin wrapper: one
    {!read_row} into the reader's own row, then the
    {!Recorded.item} built from it.  Both run the same decoder, so they
    deliver the same records and fail with the same positioned
    message. *)

type header = { h_name : string; h_pid : int; h_bytecodes : int }

type reader
(** An open trace positioned after its header.  Not an unbounded
    resource cache: one file descriptor until {!close_reader}. *)

val open_reader : string -> reader
(** Autodetects the format and parses the header eagerly — a bad magic
    or truncated header raises the same positioned [Failure] as {!load}
    (and the file is closed).  Records then come one {!read_row} or
    {!read_item} at a time. *)

val of_items : header -> (unit -> Recorded.item option) -> reader
(** A reader over an item pull ([None] = end), e.g. {!Recorded.items}:
    {!read_row} writes each pulled item as a row, marker rows with
    [h_pid].  Holds no file; {!close_reader} only marks it closed. *)

val read_row : reader -> int array -> int -> bool
(** [read_row r rows o] decodes the next record, in file order, into
    the row at [o] of [rows].  [false] at a clean end of stream, and
    the row is left as it was.  Malformed or truncated input raises
    [Failure] with the line (text) or record (binary) position; records
    before the corruption have already been delivered, so an ingester
    can account for partial streams.  A failing record may have
    written part of the row. *)

val row_marker : reader -> Recorded.marker
(** The value of the last [Row.tag_item] row {!read_row} wrote. *)

val read_item : reader -> Recorded.item option
(** Next item in file order — the replay interleaving the writers emit
    ({!Recorded.items}): {!read_row} with the item built from the row.
    [None] at a clean end of stream; failures as {!read_row}'s. *)

val reader_header : reader -> header

val close_reader : reader -> unit
(** Idempotent. *)

val with_reader : string -> (reader -> 'a) -> 'a
(** [with_reader path f] opens, applies [f], and always closes. *)
