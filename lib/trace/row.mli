(** The Fig. 5 record as six ints: how the trace decoders hand events to
    the service engine's column batches, and how those batches carry
    them to the shard consumers, without a box per event.

    Row [o] of an [int array] is the six ints from index [o]:

    {v
    o + 0  tag    tag_load | tag_store | tag_other | tag_item
    o + 1  pid
    o + 2  seq
    o + 3  k
    o + 4  lo     first byte of the access (0 for tag_other)
    o + 5  len    bytes accessed           (0 for tag_other)
    v}

    A [tag_item] row stands for something that is not an event: a trace
    marker, or a service item.  Its owner keeps that value beside the
    rows; the row gives only its pid and seq. *)

val width : int
(** [6]. *)

val tag_load : int
val tag_store : int
val tag_other : int
val tag_item : int

val set_event : int array -> int -> Event.t -> unit
(** Write the event as the row at [o]. *)

val set_item : int array -> int -> pid:int -> seq:int -> unit
(** Write a [tag_item] row at [o]; k, lo and len are 0. *)

val event : int array -> int -> Event.t
(** The event of the row at [o], whose tag is not [tag_item].  Raises
    [Invalid_argument] if a load or store row's range is not a valid
    {!Pift_util.Range.of_len}. *)

val blit : int array -> int -> int array -> int -> unit
(** [blit src so dst o] copies the row at [so] of [src] to [o] of
    [dst]. *)
