(** Imperative flat taint set — the library's one interval set, behind
    {!Store} (and through it {!Storage}'s secondary store and view),
    {!Provenance} and the full-DIFT baseline.

    A sorted interval array (parallel [lo]/[hi] int arrays) holding the
    canonical maximal disjoint closed ranges, mutable and
    allocation-free on the hot path: overlap queries are
    a binary search over a flat array, insertion coalesces in place, and
    removal splices without tombstones.  Capacity grows by amortised
    doubling.  The property suite in [test/test_store.ml] proves it
    equal to a per-byte bitmap oracle kept in [test/]. *)

type t

val create : unit -> t
val is_empty : t -> bool

val add : t -> Pift_util.Range.t -> unit
(** Insert, merging with every overlapping-or-adjacent entry. O(log n)
    search + splice (O(n) worst-case move, amortised by coalescing). *)

val remove : t -> Pift_util.Range.t -> unit
(** Untaint, trimming or splitting partially covered entries in place. *)

val mem_overlap : t -> Pift_util.Range.t -> bool
(** O(log n) binary search. *)

val overlaps : t -> lo:int -> hi:int -> bool
(** [mem_overlap] of the range [\[lo, hi\]], without building it. *)

val covers : t -> Pift_util.Range.t -> bool

val cardinal : t -> int
(** O(1). *)

val total_bytes : t -> int
(** O(1). *)

val ranges : t -> Pift_util.Range.t list
(** Maximal ranges in increasing address order. *)

val pp : Format.formatter -> t -> unit
