(** The Dalvik-style virtual machine.

    Interprets {!Bytecode} methods by executing each bytecode's native
    translation ({!Translate}) on the simulated CPU — so every
    virtual-register read/write, argument copy, fetch and field access is
    a real load or store in the instruction-event stream, while branch
    decisions and method dispatch are resolved by the interpreter.

    Frames live in the frame region ([rFP]-relative 4-byte slots) and
    grow downward; method code is materialised in simulated code memory so
    instruction fetches read real bytes; statics live in a dedicated
    region; string literals are interned on first use. *)

type t

exception Thrown of int
(** A Dalvik exception object propagating past the entry method. *)

type mode =
  | Interpreter  (** the portable interpreter: fetch + dispatch per bytecode *)
  | Jit
      (** compiled code: translations are passed through
          {!Translate.jit_optimize} — no fetch/dispatch, dead decode work
          eliminated; virtual registers stay in memory (§4.1) *)

val create :
  ?mode:mode ->
  ?natives:(string * Pift_runtime.Env.native) list ->
  ?flight:Pift_obs.Flight.t ->
  ?profile:Pift_obs.Profile.t ->
  Pift_runtime.Env.t ->
  Program.t ->
  t
(** [natives] defaults to {!Pift_runtime.Api.registry}; [mode] to
    [Interpreter].  With [flight], {!run} brackets the
    whole execution in a ["vm-run"] span and stamps a ["vm-uncaught"]
    instant when an exception escapes the entry method.  With [profile],
    {!run} is attributed to a ["vm"] region with every fragment
    execution nested beneath it as ["cpu"], so VM self time is dispatch
    plus translation and ["cpu"] is raw instruction replay. *)

val env : t -> Pift_runtime.Env.t

val run : t -> [ `Ok | `Uncaught of int ]
(** Execute the program's entry method (which must take no arguments). *)

val call : t -> string -> int list -> int
(** [call t name args] invokes a method with the given argument values
    (deposited directly in the frame, as a runtime would when starting a
    component) and returns the value left in the return slot.  Raises
    {!Thrown} on an uncaught exception, [Failure] on an unknown method. *)

val bytecodes_executed : t -> int

val frag_cache_hits : t -> int
(** Fragment fetches the translation cache served. *)

val frag_cache_misses : t -> int
(** Fragments translated on a cache miss. *)

val read_vreg : t -> fp:int -> int -> int
(** Direct frame-slot read (inspection). *)

val entry_frame_base : t -> string -> int
(** Frame pointer a {!call} of the named method will use (for computing
    argument-slot addresses ahead of a run).  Raises [Failure] on an
    unknown method. *)

val static_slot : t -> string -> int
(** Address of a static field, resolving (allocating) it if needed. *)
