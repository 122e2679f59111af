module Cpu = Pift_machine.Cpu
module Memory = Pift_machine.Memory
module Reg = Pift_arm.Reg

type t = { cpu : Cpu.t; heap : Heap.t; manager : Manager.t }

type native = t -> args:int array -> arg_addrs:int array -> unit

let create ?(pid = 1) ~sink () =
  let mem = Memory.create () in
  let cpu = Cpu.create ~pid ~sink mem in
  Cpu.set cpu Reg.R6 (Tcb.base ~pid);
  { cpu; heap = Heap.create mem; manager = Manager.create () }

let pid t = Cpu.pid t.cpu
let retval_addr t = Tcb.base ~pid:(pid t) + Tcb.retval_offset

let set_retval_ref t v =
  Intrinsics.store_word t.cpu ~addr:(retval_addr t) ~value:v

let retval t = Memory.read_u32 (Cpu.memory t.cpu) (retval_addr t)
