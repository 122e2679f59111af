(** First-order performance model of the PIFT hardware module.

    The paper argues PIFT's taint processing runs concurrently with the
    memory subsystem and only stalls the CPU on slow-path events
    (secondary-storage lookups after a primary miss).  This model turns
    trace and storage statistics into the cycle accounting behind that
    argument, and contrasts it with instruction-grained software DIFT
    (the "order of magnitude less frequent" load/store claim of §1). *)

type costs = {
  base_cpi : float;  (** cycles per instruction without tracking *)
  primary_lookup : float;  (** hidden behind the memory access: 0 stall *)
  secondary_lookup : float;  (** main-memory search on a primary miss *)
  insert : float;  (** hidden: performed off the critical path *)
  sw_dift_per_insn : float;
      (** extra cycles per instruction for inline software DIFT
          (binary-translation systems report 3–10x; we default 4.0) *)
}

val default_costs : costs

type report = {
  total_insns : int;
  memory_insns : int;
  pift_events : int;  (** loads + stores PIFT actually inspects *)
  pift_stall_cycles : float;
  pift_overhead_pct : float;
  sw_dift_overhead_pct : float;
  event_reduction : float;
      (** ratio of all instructions to PIFT-processed events *)
}

val estimate :
  ?costs:costs ->
  total_insns:int ->
  loads:int ->
  stores:int ->
  secondary_hits:int ->
  unit ->
  report

val pp_report : Format.formatter -> report -> unit
