(** Binary wire coding and the record layer shared by the trace format
    ([Pift_eval.Trace_io], magic [PIFTBIN1]) and the service snapshot
    format ([Pift_service.Snapshot], magic [PIFTSNAP1]).

    Both formats are a magic, a few header fields, then records, each
    a varint payload length followed by a tag byte and the tag's
    fields.  This module owns what the two have in common: LEB128
    varints (capped at 9 bytes, 63 value bits) with zigzag signed
    coding, the length-prefixed record writer, the 16 MiB payload cap,
    and a {!cursor} that checks the magic, frames each record and
    decodes its fields in place.  A format keeps only its tags, its
    field layouts and the validation of its own values.

    Every failure on corrupt input is a [Failure
    "<what>: record N: <message>"], where [what] names the format
    ([Trace_io], [Snapshot]) and [N] is [0] in the magic and header,
    then the record being read. *)

val add_varint : Buffer.t -> int -> unit
(** Append a non-negative int as an LEB128 varint (7 bits per byte,
    high bit = continuation). *)

val add_svarint : Buffer.t -> int -> unit
(** A signed int, zigzag-coded (0, -1, 1, -2 → 0, 1, 2, 3) then
    {!add_varint}: small magnitudes stay one byte. *)

val add_string : Buffer.t -> string -> unit
(** Length-prefixed raw bytes: varint length, then the bytes. *)

val max_record_payload : int
(** [2^24]: the largest record payload (and trace name) a cursor
    accepts. *)

(** {1 Writing records} *)

type writer

val writer : out_channel -> writer
(** A record writer on [oc], positioned after the format's magic and
    header, which the caller writes. *)

val payload : writer -> Buffer.t
(** The record being built: a tag byte, then its fields. *)

val emit : writer -> unit
(** Write the payload's varint length, then the payload, and clear
    it. *)

(** {1 Reading records} *)

type cursor = {
  fd : Unix.file_descr;
  what : string;  (** the format's error prefix *)
  mutable buf : Bytes.t;
  mutable lo : int;  (** next unread byte of [buf] *)
  mutable hi : int;  (** end of the valid bytes of [buf] *)
  mutable eof : bool;
  mutable record : int;  (** [0] in the header, then [1], [2], ... *)
  mutable pos : int;  (** next undecoded byte of the current payload *)
  mutable limit : int;  (** end of the current payload *)
}
(** A chunked reader over an open file descriptor ([Unix.read] into
    its own buffer, 16 KiB refills, grown for larger records; the
    caller keeps and closes the descriptor), the record number, and the
    current record's payload bounds.  No [in_channel] sits underneath:
    a channel's 64 KiB buffer would only be copied out of.

    The record is concrete so that a format's hot loop can take the
    common cases in its own compilation unit.  A one-byte length [len]
    (in [1..127]) at [lo] whose payload is buffered
    ([lo + 1 + len <= hi]) frames the record as {!next} does: bump
    [record], tag at [lo + 1], fields from [pos = lo + 2] up to
    [limit = lo + 1 + len], and [lo] at [limit].  A byte below [0x80]
    at [pos < limit] is a whole field.  Everything else — refills,
    longer lengths and fields, end of stream, and every failure — goes
    through the functions below.  A read error raises [Sys_error]
    with the system's message, as [input] does; [EINTR] is retried. *)

val open_file : string -> Unix.file_descr
(** Open [path] read-only, close-on-exec.  Failure raises the
    [Sys_error "<path>: <message>"] that [open_in_bin] raises. *)

val close_file : Unix.file_descr -> unit
(** Close, ignoring errors (as [close_in_noerr]). *)

val with_file : string -> (Unix.file_descr -> 'a) -> 'a
(** {!open_file}, apply, and always {!close_file}. *)

val open_cursor : what:string -> magic:string -> Unix.file_descr -> cursor
(** Check that the stream starts with [magic] (["bad magic"], or
    ["bad magic (truncated)"] when it is shorter) and position the
    cursor after it, in the header (record 0).  The magic is read by
    the cursor's first refill. *)

val sniff : what:string -> magic:string -> Unix.file_descr -> cursor * bool
(** {!open_cursor} without the failure: the cursor, and whether the
    stream starts with [magic].  When it does, the cursor stands after
    the magic, in the header; when not, at the stream's first byte, so
    the bytes the check read can still be decoded (as text, with
    {!line}). *)

val fail : cursor -> string -> 'a
(** Raise the positioned [Failure] for the current record. *)

val header_byte : cursor -> int
(** The next header byte, or [-1] at end of stream. *)

val header_varint : cursor -> int
(** The next header varint (["truncated varint"], ["varint overflow"]). *)

val header_bytes : cursor -> int -> string -> string
(** [header_bytes c n truncated]: the next [n] header bytes; fails with
    [truncated] when the stream ends first. *)

val line : cursor -> string option
(** The next line of a text stream, without its ['\n'], reading on
    from wherever the cursor stands (after {!sniff} found no magic,
    the stream's first byte); the last line needs no newline.  [None]
    at end of stream.  This is [input_line] on the cursor's own buffer,
    so a text stream whose magic check already read it needs no seek
    back, and reads from a pipe. *)

val next : cursor -> int
(** Frame the next record and return its tag byte, its fields ready to
    decode; [-1] at end of stream exactly at a record boundary.  Fails
    on an empty, implausibly long (over {!max_record_payload}) or
    truncated record.  A one-byte length whose payload is already
    buffered skips the checked read. *)

val varint : cursor -> int
(** The next field of the current record.  Fails on a field running
    past the payload (["truncated record payload"]) or a varint longer
    than 9 bytes (["varint overflow"]).  A one-byte field skips the
    varint loop, and no field decoder allocates, except that {!string}
    returns a fresh string. *)

val svarint : cursor -> int
(** A zigzag-coded field. *)

val byte : cursor -> int
(** One raw payload byte. *)

val string : cursor -> string -> string
(** [string c truncated]: a length-prefixed field; fails with
    [truncated] when its bytes run past the payload. *)

val remaining : cursor -> int
(** Payload bytes not yet decoded; right after {!next}, the payload
    length less the tag byte. *)

val unknown_tag : cursor -> int -> 'a
(** Fail with ["unknown record tag N"]. *)

val finish : cursor -> unit
(** Fail with ["trailing bytes in record"] unless every payload byte
    was decoded. *)
