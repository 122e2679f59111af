module Insn = Pift_arm.Insn

(* Events live in fixed-size chunks, so appending never copies and a
   trace holds at most one partly filled chunk.  [insns] keeps the
   instructions [sink] stored, chunk for chunk beside [events]; it stays
   [[||]] while the trace holds only decoded events. *)
let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

type t = {
  mutable events : Event.t array array;
  mutable insns : Insn.t array array;
  mutable len : int;
  mutable loads : int;
  mutable stores : int;
}

let dummy = { Event.seq = 0; k = 0; pid = 0; access = Event.Other }
let create () = { events = [||]; insns = [||]; len = 0; loads = 0; stores = 0 }

let with_chunk chunks fill =
  Array.append chunks [| Array.make (chunk_mask + 1) fill |]

let push t e =
  let c = t.len lsr chunk_bits in
  if c = Array.length t.events then t.events <- with_chunk t.events dummy;
  t.events.(c).(t.len land chunk_mask) <- e;
  t.len <- t.len + 1;
  if Event.is_load e then t.loads <- t.loads + 1
  else if Event.is_store e then t.stores <- t.stores + 1

let has_insns t = Array.length t.insns = Array.length t.events

let add t e =
  if Array.length t.insns > 0 then
    invalid_arg "Trace.add: this trace records instructions (use Trace.sink)";
  push t e

let sink t insn e =
  if not (has_insns t) then
    invalid_arg "Trace.sink: this trace holds decoded events (use Trace.add)";
  let c = t.len lsr chunk_bits in
  if c = Array.length t.insns then t.insns <- with_chunk t.insns Insn.Nop;
  t.insns.(c).(t.len land chunk_mask) <- insn;
  push t e

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: out of bounds";
  t.events.(i lsr chunk_bits).(i land chunk_mask)

(* On a decoded trace, [t.insns] is empty and the access itself raises. *)
let insn t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.insn: out of bounds";
  t.insns.(i lsr chunk_bits).(i land chunk_mask)

let iter f t =
  Array.iteri
    (fun c events ->
      for o = 0 to min chunk_mask (t.len - 1 - (c lsl chunk_bits)) do
        f events.(o)
      done)
    t.events

let replay t consumers =
  iter (fun e -> List.iter (fun c -> c e) consumers) t

let loads t = t.loads
let stores t = t.stores

let pids t =
  let module Iset = Set.Make (Int) in
  let set = ref Iset.empty in
  iter (fun e -> set := Iset.add e.Event.pid !set) t;
  Iset.elements !set
