(** Trivially-correct bytemap taint set — the test oracle for {!Store_flat}.

    One bit per byte address in a dense growable bitmap; every operation
    is a per-byte loop.  Too slow (and too dense) for real traces, but
    impossible to get subtly wrong at range boundaries — which is the
    point: the differential property suite replays the same operation
    sequences through {!Store_flat} and this oracle and demands
    identical answers.  Testing only; no library configuration reaches
    it. *)

type t

val create : unit -> t
val is_empty : t -> bool
val add : t -> Pift_util.Range.t -> unit
val remove : t -> Pift_util.Range.t -> unit
val mem_overlap : t -> Pift_util.Range.t -> bool
val covers : t -> Pift_util.Range.t -> bool

val cardinal : t -> int
(** Number of maximal runs of tainted bytes — O(max address). *)

val total_bytes : t -> int
(** O(1) (a live population count). *)

val ranges : t -> Pift_util.Range.t list
(** Maximal runs in increasing address order. *)

val pp : Format.formatter -> t -> unit
