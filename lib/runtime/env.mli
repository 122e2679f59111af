(** Execution environment shared by the runtime, the VM, and native
    methods: the CPU, the heap, and the PIFT manager. *)

type t = {
  cpu : Pift_machine.Cpu.t;
  heap : Heap.t;
  manager : Manager.t;
}

type native = t -> args:int array -> arg_addrs:int array -> unit
(** A native method: receives argument values and the addresses of the
    frame slots holding them (so it can *load* tainted values rather than
    conjure them).  Results are written to the caller-visible return-value
    slot ({!Tcb.retval_offset}) by executed stores. *)

val create :
  ?pid:int ->
  sink:(Pift_arm.Insn.t -> Pift_trace.Event.t -> unit) -> unit -> t
(** Fresh memory, CPU (with [r6] pointing at the process TCB), heap and
    manager. *)

val pid : t -> int

val retval_addr : t -> int
(** Address of the current process's return-value slot. *)

val set_retval_ref : t -> int -> unit
(** Write an object reference (clean data) to the return-value slot via
    an executed [mov]/[str] pair. *)

val retval : t -> int
(** Read the return-value slot directly (inspection only). *)
