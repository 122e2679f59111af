(** The metrics snapshot a run reports: a list of named samples, built
    as values at the end of the run from the counters its parts kept
    ({!Pift_eval.Metrics.samples}), and rendered by the {!Sink} module
    as JSON Lines, Prometheus text exposition, or a human summary. *)

type kind = Counter_kind | Gauge_kind | Histogram_kind

val kind_to_string : kind -> string
(** ["counter"], ["gauge"], or ["histogram"] — the exposition names. *)

type point =
  | P_counter of int
  | P_gauge of { value : float; peak : float }
  | P_histogram of {
      count : int;
      sum : int;
      vmax : int;
      buckets : (int * int) list;  (** (inclusive upper bound, count) *)
    }

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_points : ((string * string) list * point) list;
      (** one per label value; labels empty for plain metrics *)
}

val log2_histogram : int list -> point
(** The log2-bucketed histogram of the observations: bucket 0 counts
    values <= 0 (upper bound 0), and bucket [b >= 1] counts values in
    [\[2^(b-1), 2^b - 1\]].  Only non-empty buckets are listed, lowest
    first, each with its inclusive upper bound.  [vmax] is 0 for no
    positive observation. *)
