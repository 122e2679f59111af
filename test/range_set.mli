(** A persistent set of disjoint, coalesced byte ranges: the tainted
    state R of Algorithm 1 written the plain functional way, over a
    [Map].  Ranges that overlap or touch are merged on insertion, so the
    set is always a canonical list of maximal disjoint ranges.

    Test oracle only, kept independent of {!Pift_core.Store_flat}: the
    end-to-end sweep in [test_store] replays whole traces against a
    per-pid [Range_set] store, and [test_core]'s per-label origins model
    keeps one per (pid, label). *)

type t

val empty : t
val is_empty : t -> bool

val add : t -> Pift_util.Range.t -> t
(** Taint a range (Algorithm 1 line 18). *)

val remove : t -> Pift_util.Range.t -> t
(** Untaint a range (line 21), splitting partially covered entries. *)

val mem_overlap : t -> Pift_util.Range.t -> bool
(** The tainted-load test of line 11: does any tainted range overlap the
    query?  This is the paper's [max(si,sL) <= min(ei,eL)] condition. *)

val covers : t -> Pift_util.Range.t -> bool
(** Is the whole query range tainted? *)

val cardinal : t -> int
(** Number of distinct ranges (Fig. 17/19 metric). *)

val total_bytes : t -> int
(** Total tainted bytes (Fig. 14/15/18 metric). *)

val ranges : t -> Pift_util.Range.t list
(** Maximal ranges in increasing address order. *)

val of_list : Pift_util.Range.t list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
