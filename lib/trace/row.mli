(** The Fig. 5 record as six ints: the format a recording ({!Trace})
    keeps its events in, how the trace decoders hand events to the
    service engine's column batches, and how those batches carry them
    to the shard consumers, without a box per event.

    Row [o] of an [int array] is the six ints from index [o]:

    {v
    o + 0  tag    tag_load | tag_store | tag_other | tag_item
    o + 1  pid
    o + 2  seq
    o + 3  k
    o + 4  lo     first byte of the access (0 for tag_other)
    o + 5  len    bytes accessed           (the count n for tag_other)
    v}

    A [tag_other] row is a {e counted row}: it stands for a run of
    [n >= 1] consecutive non-memory instructions of one pid, which
    Algorithm 1 only counts.  Its seq is the run's largest and its k
    the run's last; a decoder writes [n = 1] and {!fold} grows it.

    A [tag_item] row stands for something that is not an event: a trace
    marker, or a service item.  Its owner keeps that value beside the
    rows; the row gives only its pid and seq.

    A recording folds losslessly: an [Other] event joins the last row
    only when that row is a [tag_other] row of the same pid and the
    event's seq and k are each exactly one past the row's, so the run's
    events are the row's seq and k counted back.  A recording's load or
    store row keeps, in place of [lo], the index of its range in the
    trace's intern table ({!Trace.range}). *)

val width : int
(** [6]. *)

val tag_load : int
val tag_store : int
val tag_other : int
val tag_item : int

val set_event : int array -> int -> Event.t -> unit
(** Write the event as the row at [o]; an [Other] event as a counted
    row of 1. *)

val set_item : int array -> int -> pid:int -> seq:int -> unit
(** Write a [tag_item] row at [o]; k, lo and len are 0. *)

val count : int array -> int -> int
(** The items the row at [o] stands for: [n] for a [tag_other] row, 1
    for any other. *)

val fold : int array -> int -> pid:int -> seq:int -> k:int -> bool
(** [fold rows o ~pid ~seq ~k] adds one non-memory instruction of [pid]
    at [seq] and [k] to the row at [o] when that row is a [tag_other]
    row of [pid], and says whether it did. *)

val range : int array -> int -> Pift_util.Range.t
(** The access range of the load or store row at [o].  Raises
    [Invalid_argument] if it is not a valid {!Pift_util.Range.of_len}. *)

val event : int array -> int -> Event.t
(** The event of the row at [o], whose tag is not [tag_item]; for a
    counted row, the run's last instruction.  Raises
    [Invalid_argument] if a load or store row's range is not a valid
    {!Pift_util.Range.of_len}. *)

val blit : int array -> int -> int array -> int -> unit
(** [blit src so dst o] copies the row at [so] of [src] to [o] of
    [dst]. *)
