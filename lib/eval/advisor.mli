(** Operating-point selection — the paper's proposed follow-up study
    ("there is a proper upper-bound on the window size for each leakage
    type, which could be found from a future large-scale experiment",
    §5.1), automated.

    Given a corpus of recordings with ground-truth labels, the advisor
    searches the (NI, NT) grid for the cheapest policy that reaches the
    required detection, where cost is the overtainting footprint
    (peak tainted bytes summed over the corpus) — bigger windows catch
    more but taint more (Fig. 11 vs Fig. 14). *)

type labelled = { recording : Recorded.t; leaky : bool }

val of_apps : Pift_workloads.App.t list -> labelled list
(** Record each app once. *)

type candidate = {
  policy : Pift_core.Policy.t;
  false_negatives : string list;  (** names of leaky recordings missed *)
  false_positives : string list;
  overtaint_cost : int;  (** sum of peak tainted bytes across the corpus *)
}

val evaluate : labelled list -> policy:Pift_core.Policy.t -> candidate

val recommend :
  ?max_ni:int -> ?max_nt:int -> labelled list -> candidate option
(** The zero-FN, zero-FP policy with the smallest overtaint cost
    (ties broken towards smaller NI, then smaller NT); [None] when no
    policy on the grid classifies the corpus perfectly.  The grid is
    NI = 1..[max_ni] by NT = 1..[max_nt] (defaults 20 and 10), walked
    once per recording with {!Recorded.replay_grid}: a recording is
    replayed once per rectangle of the grid the walk meets, and the
    result is the one a replay per cell would give. *)

val pp_candidate : Format.formatter -> candidate -> unit
