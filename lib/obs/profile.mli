(** Overhead attribution: the Begin/End spans of per-slot flight rings
    ({!Flight}) folded into flamegraph-compatible stacks.

    The rings are the only region recorder, so a profile holds exactly
    the spans a [--trace-out] timeline shows: per-chunk, per-cell and
    per-phase accounting, not a region per call.  Each span contributes
    its *self* time — wall time minus the time of the spans inside it —
    under its semicolon-joined path (["chunk;cell"]).  Self times are
    additive: a folded stack sums to the spanned wall clock, which is
    what makes the per-subsystem percentage breakdown meaningful. *)

val fold : Flight.t array -> (string * float) list
(** (folded path, self seconds) over every ring's spans.  Span names
    are grouped by {!Chrome.phase_of} (["cell(3,4)"] -> ["cell"]), so
    a path names phases, not instances.  Rings are read through
    {!Flight.iter_balanced}, the repair {!Chrome.json} applies to a
    wrapped ring.  Paths come in first-completion order: slot 0's
    first, then each later slot's new paths; equal paths of different
    slots are summed. *)

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
