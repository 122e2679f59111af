(** One executed instruction, as observed by the PIFT front-end logic.

    This is the paper's Fig. 5 interface between CPU and PIFT hardware
    module: for every instruction the front end supplies the
    process-specific ID, the process-specific instruction counter, the
    access type, and the resolved address range — and nothing else.  The
    instruction itself is not part of the event: only the CPU and a live
    recording ({!Trace.sink}) have one. *)

type access =
  | Load of Pift_util.Range.t
  | Store of Pift_util.Range.t
  | Other

type t = {
  seq : int;  (** global instruction sequence number *)
  k : int;  (** per-process instruction counter (Algorithm 1's [k]) *)
  pid : int;
  access : access;
}

val is_load : t -> bool
val is_store : t -> bool

val range : t -> Pift_util.Range.t option
(** Address range of a memory access, [None] for [Other]. *)
