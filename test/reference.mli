(** Obviously-correct model of Algorithm 1 for differential testing.

    Taint state is a per-process hash set of individual byte addresses;
    every operation is a direct transliteration of the paper's pseudocode
    with no clever data structures.  Property tests drive
    {!Pift_core.Tracker} and this module with the same event stream and
    compare answers. *)

type t

val create : Pift_core.Policy.t -> t
val taint_source : t -> pid:int -> Pift_util.Range.t -> unit
val observe : t -> Pift_trace.Event.t -> unit
val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool
val tainted_bytes : t -> int
val range_count : t -> int
(** Number of maximal runs of consecutive tainted bytes. *)
