(** Binary wire coding shared by the trace format ([Pift_eval.Trace_io],
    magic [PIFTBIN1]) and the service snapshot format
    ([Pift_service.Snapshot], magic [PIFTSNAP1]): LEB128 varints,
    zigzag signed coding, and a chunked channel reader.

    Every decode primitive takes a [fail] continuation so each format
    reports errors at its own record granularity ([Trace_io: record N],
    [Snapshot: record N]); [fail] must raise. *)

val add_varint : Buffer.t -> int -> unit
(** Append a non-negative int as an LEB128 varint (7 bits per byte,
    high bit = continuation). *)

val zigzag : int -> int
(** Map a signed int to a non-negative code: 0, -1, 1, -2 → 0, 1, 2, 3. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val add_svarint : Buffer.t -> int -> unit
(** [add_varint buf (zigzag v)] — signed values, small magnitudes stay
    one byte. *)

val add_string : Buffer.t -> string -> unit
(** Length-prefixed raw bytes: varint length, then the bytes. *)

module Reader : sig
  (** Chunked channel reader. Fields are exposed so length-prefixed
      formats can decode a whole buffered record in place ([buf] between
      [lo] and [hi]) after a {!has} check, without re-copying. *)
  type t = {
    ic : in_channel;
    mutable buf : Bytes.t;
    mutable lo : int;  (** next unread byte *)
    mutable hi : int;  (** end of valid bytes *)
    mutable eof : bool;
  }

  val create : in_channel -> t
  (** Reader over [ic] with a 16 KiB chunk buffer, grown by {!has} for
      records larger than that. The channel keeps its own buffer, so a
      reader holds about 80 KiB while open; the service keeps one open per
      tenant. The caller retains ownership of the channel (close it
      yourself). *)

  val refill : t -> unit
  (** Slide live bytes to the front and read one more chunk; sets [eof]
      when the channel is exhausted. *)

  val has : t -> int -> bool
  (** [has r n] buffers until [n] contiguous bytes are available
      (growing [buf] beyond the chunk size if needed); [false] means
      the stream ended first. *)

  val byte : t -> int
  (** Next byte, or [-1] at end of stream. *)

  val varint : ?first_eof_ok:bool -> (string -> int) -> t -> int
  (** Decode one varint. Calls [fail] (which must raise) on truncation
      or a varint longer than 9 bytes. With [~first_eof_ok:true],
      raises [End_of_file] when the stream ends cleanly before the
      first byte — the record-boundary EOF case. *)
end
