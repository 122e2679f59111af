module Insn = Pift_arm.Insn
module Reg = Pift_arm.Reg
module Cond = Pift_arm.Cond
module Range = Pift_util.Range
module Event = Pift_trace.Event

let mask32 v = v land 0xFFFF_FFFF

(* Return-address sentinel: a code index no fragment ever reaches. *)
let return_sentinel = 0xFFFF_FFFF

module Counter = Pift_obs.Metric.Counter

type meters = {
  m_insns : Counter.t;
  m_loads : Counter.t;
  m_stores : Counter.t;
}

let meters_of registry =
  let c help name = Pift_obs.Registry.counter registry ~help name in
  {
    m_insns = c "instructions retired" "pift_cpu_instructions_total";
    m_loads = c "load instructions retired" "pift_cpu_loads_total";
    m_stores = c "store instructions retired" "pift_cpu_stores_total";
  }

type t = {
  mem : Memory.t;
  regs : int array;
  mutable cmp_fst : int;
  mutable cmp_snd : int;
  mutable pid : int;
  counters : (int, int ref) Hashtbl.t;
  mutable seq : int;
  mutable sink : Insn.t -> Event.t -> unit;
  meters : meters option;
}

let create ?(pid = 1) ?metrics ~sink mem =
  {
    mem;
    regs = Array.make 16 0;
    cmp_fst = 0;
    cmp_snd = 0;
    pid;
    counters = Hashtbl.create 4;
    seq = 0;
    sink;
    meters = Option.map meters_of metrics;
  }

let memory t = t.mem
let get t r = t.regs.(Reg.index r)
let set t r v = t.regs.(Reg.index r) <- mask32 v
let pid t = t.pid
let set_pid t pid = t.pid <- pid

let counter_ref t =
  match Hashtbl.find_opt t.counters t.pid with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters t.pid r;
      r

let counter t = !(counter_ref t)
let global_seq t = t.seq
let set_sink t sink = t.sink <- sink

let eval_shift t r = function
  | Insn.Lsl n -> mask32 (t.regs.(Reg.index r) lsl (n land 31))
  | Insn.Lsr n -> t.regs.(Reg.index r) lsr (n land 31)
  | Insn.Asr n ->
      let v = t.regs.(Reg.index r) in
      let signed = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
      mask32 (signed asr (n land 31))

let eval_operand t = function
  | Insn.Imm n -> mask32 n
  | Insn.Reg r -> t.regs.(Reg.index r)
  | Insn.Shifted (r, s) -> eval_shift t r s

(* Resolve an addressing mode: effective address, applying writeback. *)
let resolve t = function
  | Insn.Offset (rn, op) -> mask32 (get t rn + eval_operand t op)
  | Insn.Pre (rn, op) ->
      let a = mask32 (get t rn + eval_operand t op) in
      set t rn a;
      a
  | Insn.Post (rn, op) ->
      let a = get t rn in
      set t rn (a + eval_operand t op);
      a

let alu_compute op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Rsb -> b - a
  | Insn.Mul -> a * b
  | Insn.And -> a land b
  | Insn.Orr -> a lor b
  | Insn.Eor -> a lxor b
  | Insn.Lsl_op -> a lsl (b land 31)
  | Insn.Lsr_op -> a lsr (b land 31)
  | Insn.Asr_op ->
      let signed = if a land 0x8000_0000 <> 0 then a - 0x1_0000_0000 else a in
      signed asr (b land 31)

let do_load t w r addr =
  (match w with
  | Insn.Byte -> set t r (Memory.read_u8 t.mem addr)
  | Insn.Half -> set t r (Memory.read_u16 t.mem addr)
  | Insn.Word -> set t r (Memory.read_u32 t.mem addr)
  | Insn.Dword ->
      set t r (Memory.read_u32 t.mem addr);
      set t (Reg.succ r) (Memory.read_u32 t.mem (addr + 4)));
  Range.of_len addr (Insn.width_bytes w)

let do_store t w r addr =
  (match w with
  | Insn.Byte -> Memory.write_u8 t.mem addr (get t r)
  | Insn.Half -> Memory.write_u16 t.mem addr (get t r)
  | Insn.Word -> Memory.write_u32 t.mem addr (get t r)
  | Insn.Dword ->
      Memory.write_u32 t.mem addr (get t r);
      Memory.write_u32 t.mem (addr + 4) (get t (Reg.succ r)));
  Range.of_len addr (Insn.width_bytes w)

(* Execute one instruction; returns the next pc and the memory access. *)
let step t insn pc =
  match insn with
  | Insn.Ldr (w, r, am) ->
      let addr = resolve t am in
      (pc + 1, Event.Load (do_load t w r addr))
  | Insn.Str (w, r, am) ->
      let addr = resolve t am in
      (pc + 1, Event.Store (do_store t w r addr))
  | Insn.Ldm (rn, regs) ->
      assert (not (List.exists (Reg.equal rn) regs));
      let base = get t rn in
      List.iteri
        (fun i r -> set t r (Memory.read_u32 t.mem (base + (4 * i))))
        regs;
      let len = 4 * List.length regs in
      set t rn (base + len);
      (pc + 1, Event.Load (Range.of_len base len))
  | Insn.Stm (rn, regs) ->
      assert (not (List.exists (Reg.equal rn) regs));
      let len = 4 * List.length regs in
      let base = mask32 (get t rn - len) in
      List.iteri
        (fun i r -> Memory.write_u32 t.mem (base + (4 * i)) (get t r))
        regs;
      set t rn base;
      (pc + 1, Event.Store (Range.of_len base len))
  | Insn.Mov (r, op) ->
      set t r (eval_operand t op);
      (pc + 1, Event.Other)
  | Insn.Mvn (r, op) ->
      set t r (lnot (eval_operand t op));
      (pc + 1, Event.Other)
  | Insn.Alu (op, set_flags, d, s, o) ->
      let result = mask32 (alu_compute op (get t s) (eval_operand t o)) in
      set t d result;
      if set_flags then begin
        t.cmp_fst <- result;
        t.cmp_snd <- 0
      end;
      (pc + 1, Event.Other)
  | Insn.Ubfx (d, s, lsb, w) ->
      set t d ((get t s lsr lsb) land ((1 lsl w) - 1));
      (pc + 1, Event.Other)
  | Insn.Udiv (d, n, m) ->
      let den = get t m in
      set t d (if den = 0 then 0 else get t n / den);
      (pc + 1, Event.Other)
  | Insn.Cmp (r, op) ->
      t.cmp_fst <- get t r;
      t.cmp_snd <- eval_operand t op;
      (pc + 1, Event.Other)
  | Insn.B (c, target) ->
      let next =
        if Cond.holds c ~fst:t.cmp_fst ~snd:t.cmp_snd then target else pc + 1
      in
      (next, Event.Other)
  | Insn.Bl target ->
      set t Reg.LR (pc + 1);
      (target, Event.Other)
  | Insn.Bx r -> (get t r, Event.Other)
  | Insn.Nop -> (pc + 1, Event.Other)

exception Fuel_exhausted

let run ?(fuel = 50_000_000) t frag =
  let saved_lr = get t Reg.LR in
  set t Reg.LR return_sentinel;
  let remaining = ref fuel in
  let pc = ref 0 in
  let n = Array.length frag in
  while !pc <> return_sentinel do
    if !pc < 0 || !pc >= n then
      failwith
        (Printf.sprintf "Cpu.run: pc %d outside fragment of %d insns" !pc n);
    if !remaining = 0 then raise Fuel_exhausted;
    decr remaining;
    let insn = frag.(!pc) in
    let next, access = step t insn !pc in
    t.seq <- t.seq + 1;
    let kr = counter_ref t in
    incr kr;
    (match t.meters with
    | None -> ()
    | Some m -> (
        Counter.incr m.m_insns;
        match access with
        | Event.Load _ -> Counter.incr m.m_loads
        | Event.Store _ -> Counter.incr m.m_stores
        | Event.Other -> ()));
    t.sink insn { Event.seq = t.seq; k = !kr; pid = t.pid; access };
    pc := next
  done;
  set t Reg.LR saved_lr
