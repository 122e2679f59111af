(** Overhead-attribution profiler: hierarchical timed regions folded
    into flamegraph-compatible stacks.

    Hot paths bracket themselves with {!enter}/{!leave} (or the
    [option]-gated {!span}); each completed region accumulates its
    *self* time — wall time minus the time of the regions entered
    beneath it — under its semicolon-joined path
    (["pool;replay;store"]).  Self times are additive: a folded
    stack sums to the instrumented wall clock, which is what makes the
    per-subsystem percentage breakdown meaningful.

    One instance per worker slot, single writer, no locks; merge the
    slots with {!merged} after a parallel region. *)

type t

val create : unit -> t

val enter : t -> string -> unit
(** Open a region named [name] under the currently open region. *)

val leave : t -> unit
(** Close the innermost open region and attribute its self time.
    No-op when nothing is open. *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span (Some t) name f] brackets [f] with {!enter}/{!leave} (closing
    on exceptions too); [span None name f] is just [f ()] — the no-op
    branch un-profiled runs stay on. *)

val reset : t -> unit

val folded : t -> (string * float) list
(** Completed regions as (folded path, self seconds), in
    first-completion order.  Regions still open contribute nothing. *)

val merged : t array -> (string * float) list
(** Per-slot results summed by path — slot 0's ordering first, later
    slots' new paths appended. *)

val to_folded_string : (string * float) list -> string
(** One ["path µs"] line per region (self time in integer
    microseconds) — feed it to flamegraph.pl or speedscope. *)

exception Malformed of string

val parse_folded : string -> (string * float) list
(** Inverse of {!to_folded_string}; weights come back as seconds.
    Raises {!Malformed} on lines that are not ["path <int>"]. *)

val looks_like_folded : string -> bool
(** Raw-content sniff for [pift report]: first non-blank line ends in a
    space-separated integer and does not look like JSON. *)

val leaf : string -> string
(** Last segment of a folded path — the region (subsystem) name. *)

val breakdown : (string * float) list -> (string * float * float) list
(** Self time grouped by region name: (name, seconds, percent of the
    attributed total), sorted by share descending. *)

val render :
  ?source:string -> (string * float) list -> Format.formatter -> unit -> unit
(** Human summary: per-subsystem share table plus the hottest stacks
    (the [pift report] view of a folded profile). *)
