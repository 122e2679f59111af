(** The simulated CPU: register file, flags state, per-process instruction
    counters, and the fragment executor.

    Every executed instruction emits one {!Pift_trace.Event.t} to the
    attached sink — this is the PIFT front-end logic of the paper's Fig. 5,
    which "tracks the instructions executed by the CPU's instruction unit
    and generates events upon observing memory access instructions".  The
    event is the Fig. 5 record only: pid, instruction counter, access type
    and resolved range.  The sink receives the executed instruction as a
    separate argument, which PIFT ignores and the full-DIFT baseline reads.
    Non-memory instructions emit [Other] events too, so consumers can
    measure distances. *)

type t

val create :
  ?pid:int -> ?metrics:Pift_obs.Registry.t ->
  sink:(Pift_arm.Insn.t -> Pift_trace.Event.t -> unit) -> Memory.t -> t
(** A CPU with zeroed registers.  [pid] defaults to 1.  With [metrics],
    [pift_cpu_*] counters track instructions retired and the load/store
    mix; without it the retire path stays untouched. *)

val memory : t -> Memory.t

val get : t -> Pift_arm.Reg.t -> int
(** Current 32-bit register value. *)

val set : t -> Pift_arm.Reg.t -> int -> unit
(** Values are truncated to 32 bits. *)

val pid : t -> int

val set_pid : t -> int -> unit
(** Context switch: subsequent events carry the new PID and its own
    instruction counter. *)

val counter : t -> int
(** Per-process instruction counter of the current process. *)

val global_seq : t -> int
(** Instructions executed across all processes. *)

val set_sink : t -> (Pift_arm.Insn.t -> Pift_trace.Event.t -> unit) -> unit
(** Redirect the event stream (used to splice trackers in and out). *)

exception Fuel_exhausted

val run : ?fuel:int -> t -> Pift_arm.Asm.fragment -> unit
(** Execute a fragment from index 0 until the top-level [bx lr] return.
    [LR] is seeded with a sentinel return address.  Nested [bl] calls
    within the fragment work provided callees preserve [LR] (push/pop via
    [Stm]/[Ldm]).  Raises {!Fuel_exhausted} after [fuel] instructions
    (default [50_000_000]) to catch runaway loops. *)
