(* Unit tests for Pift_machine: memory, CPU semantics, event emission. *)

module Memory = Pift_machine.Memory
module Cpu = Pift_machine.Cpu
module Layout = Pift_machine.Layout
module Insn = Pift_arm.Insn
module Reg = Pift_arm.Reg
module Cond = Pift_arm.Cond
module Asm = Pift_arm.Asm
module Event = Pift_trace.Event
module Range = Pift_util.Range

let checki = Alcotest.(check int)

(* --- Memory ------------------------------------------------------------- *)

let test_memory_widths () =
  let m = Memory.create () in
  checki "zero default" 0 (Memory.read_u32 m 0x1000);
  Memory.write_u8 m 0x1000 0xAB;
  checki "u8" 0xAB (Memory.read_u8 m 0x1000);
  Memory.write_u16 m 0x2000 0xBEEF;
  checki "u16" 0xBEEF (Memory.read_u16 m 0x2000);
  checki "u16 lo byte (little endian)" 0xEF (Memory.read_u8 m 0x2000);
  checki "u16 hi byte" 0xBE (Memory.read_u8 m 0x2001);
  Memory.write_u32 m 0x3000 0xDEADBEEF;
  checki "u32" 0xDEADBEEF (Memory.read_u32 m 0x3000);
  Memory.write_u64 m 0x4000 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Memory.read_u64 m 0x4000);
  checki "u64 low word" 0x89ABCDEF (Memory.read_u32 m 0x4000);
  Memory.write_u8 m 0x5000 0x1FF;
  checki "u8 truncation" 0xFF (Memory.read_u8 m 0x5000)

let test_memory_pages () =
  let m = Memory.create () in
  (* straddle a 4096-byte page boundary *)
  Memory.write_u32 m 4094 0x11223344;
  checki "straddle read" 0x11223344 (Memory.read_u32 m 4094);
  checki "pages touched" 2 (Memory.pages_touched m);
  let b = Memory.read_bytes m 4094 4 in
  checki "read_bytes" 0x44 (Char.code (Bytes.get b 0));
  Memory.write_bytes m 8000 (Bytes.of_string "hi");
  checki "write_bytes" (Char.code 'h') (Memory.read_u8 m 8000);
  match Memory.read_u8 m (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument on a negative address"
  | exception Invalid_argument _ -> ()

(* --- Cpu ------------------------------------------------------------------ *)

let run_frag ?(setup = fun _ -> ()) insns =
  let events = ref [] in
  let m = Memory.create () in
  let cpu = Cpu.create ~sink:(fun _ e -> events := e :: !events) m in
  setup cpu;
  let a = Asm.create () in
  Asm.emit_all a insns;
  Asm.ret a;
  Cpu.run cpu (Asm.assemble a);
  (cpu, List.rev !events)

let imm n = Insn.Imm n
let rg r = Insn.Reg r

let test_alu () =
  let cpu, _ =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 7);
        Insn.Mov (Reg.R1, imm 3);
        Insn.Alu (Insn.Add, false, Reg.R2, Reg.R0, rg Reg.R1);
        Insn.Alu (Insn.Sub, false, Reg.R3, Reg.R0, rg Reg.R1);
        Insn.Alu (Insn.Mul, false, Reg.R9, Reg.R0, rg Reg.R1);
        Insn.Alu (Insn.Rsb, false, Reg.R10, Reg.R1, imm 10);
        Insn.Alu (Insn.Eor, false, Reg.R11, Reg.R0, rg Reg.R1);
        Insn.Alu (Insn.Lsl_op, false, Reg.R12, Reg.R0, imm 4);
      ]
  in
  checki "add" 10 (Cpu.get cpu Reg.R2);
  checki "sub" 4 (Cpu.get cpu Reg.R3);
  checki "mul" 21 (Cpu.get cpu Reg.R9);
  checki "rsb" 7 (Cpu.get cpu Reg.R10);
  checki "eor" 4 (Cpu.get cpu Reg.R11);
  checki "lsl" 112 (Cpu.get cpu Reg.R12)

let test_masking () =
  let cpu, _ =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 0xFFFF_FFFF);
        Insn.Alu (Insn.Add, false, Reg.R1, Reg.R0, imm 1);
        Insn.Mov (Reg.R2, imm 0);
        Insn.Alu (Insn.Sub, false, Reg.R2, Reg.R2, imm 1);
        Insn.Mvn (Reg.R3, imm 0);
        Insn.Alu (Insn.Asr_op, false, Reg.R9, Reg.R0, imm 4);
        Insn.Alu (Insn.Lsr_op, false, Reg.R10, Reg.R0, imm 28);
      ]
  in
  checki "add wraps" 0 (Cpu.get cpu Reg.R1);
  checki "sub wraps" 0xFFFF_FFFF (Cpu.get cpu Reg.R2);
  checki "mvn" 0xFFFF_FFFF (Cpu.get cpu Reg.R3);
  checki "asr sign-extends" 0xFFFF_FFFF (Cpu.get cpu Reg.R9);
  checki "lsr zero-extends" 0xF (Cpu.get cpu Reg.R10)

let test_bitfield_div () =
  let cpu, _ =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 0xABCD);
        Insn.Ubfx (Reg.R1, Reg.R0, 8, 4);
        Insn.Mov (Reg.R2, imm 100);
        Insn.Mov (Reg.R3, imm 7);
        Insn.Udiv (Reg.R9, Reg.R2, Reg.R3);
        Insn.Mov (Reg.R10, imm 0);
        Insn.Udiv (Reg.R11, Reg.R2, Reg.R10);
      ]
  in
  checki "ubfx" 0xB (Cpu.get cpu Reg.R1);
  checki "udiv" 14 (Cpu.get cpu Reg.R9);
  checki "udiv by zero" 0 (Cpu.get cpu Reg.R11)

let test_loads_stores () =
  let cpu, events =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 0x1000);
        Insn.Mov (Reg.R1, imm 0x1234_5678);
        Insn.Str (Insn.Word, Reg.R1, Insn.Offset (Reg.R0, imm 0));
        Insn.Ldr (Insn.Byte, Reg.R2, Insn.Offset (Reg.R0, imm 0));
        Insn.Ldr (Insn.Half, Reg.R3, Insn.Offset (Reg.R0, imm 2));
        Insn.Ldr (Insn.Word, Reg.R9, Insn.Offset (Reg.R0, imm 0));
      ]
  in
  checki "byte load" 0x78 (Cpu.get cpu Reg.R2);
  checki "half load" 0x1234 (Cpu.get cpu Reg.R3);
  checki "word load" 0x1234_5678 (Cpu.get cpu Reg.R9);
  let loads = List.filter Event.is_load events in
  let stores = List.filter Event.is_store events in
  checki "load events" 3 (List.length loads);
  checki "store events" 1 (List.length stores);
  match Event.range (List.hd stores) with
  | Some r ->
      checki "store range lo" 0x1000 (Range.lo r);
      checki "store range hi" 0x1003 (Range.hi r)
  | None -> Alcotest.fail "store range missing"

let test_addressing_modes () =
  let cpu, _ =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 0x2000);
        Insn.Mov (Reg.R1, imm 0xAA);
        (* pre-index with writeback *)
        Insn.Str (Insn.Byte, Reg.R1, Insn.Pre (Reg.R0, imm 4));
        (* post-index *)
        Insn.Str (Insn.Byte, Reg.R1, Insn.Post (Reg.R0, imm 8));
        (* register offset with shift *)
        Insn.Mov (Reg.R2, imm 2);
        Insn.Ldr (Insn.Byte, Reg.R3, Insn.Offset (Reg.R0, Insn.Shifted (Reg.R2, Insn.Lsl 1)));
      ]
  in
  (* pre: r0 = 0x2004 then store; post: store at 0x2004 then r0 = 0x200c *)
  checki "writeback" 0x200C (Cpu.get cpu Reg.R0);
  let m = Cpu.memory cpu in
  checki "pre-index store" 0xAA (Memory.read_u8 m 0x2004);
  (* the shifted load read 0x200c + 4 = 0x2010 (zero) *)
  checki "shifted load" 0 (Cpu.get cpu Reg.R3)

let test_dword_multi () =
  let cpu, events =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 0x3000);
        Insn.Mov (Reg.R2, imm 0x1111);
        Insn.Mov (Reg.R3, imm 0x2222);
        Insn.Str (Insn.Dword, Reg.R2, Insn.Offset (Reg.R0, imm 0));
        Insn.Ldr (Insn.Dword, Reg.R9, Insn.Offset (Reg.R0, imm 0));
        (* push via stm *)
        Insn.Mov (Reg.SP, imm 0x8000);
        Insn.Stm (Reg.SP, [ Reg.R2; Reg.R3 ]);
      ]
  in
  ignore events;
  checki "dword lo" 0x1111 (Cpu.get cpu Reg.R9);
  checki "dword hi" 0x2222 (Cpu.get cpu Reg.R10);
  checki "stm writeback" (0x8000 - 8) (Cpu.get cpu Reg.SP);
  let m = Cpu.memory cpu in
  checki "stm first" 0x1111 (Memory.read_u32 m (0x8000 - 8));
  checki "stm second" 0x2222 (Memory.read_u32 m (0x8000 - 4))

let test_ldm_roundtrip () =
  let cpu, events =
    run_frag
      [
        Insn.Mov (Reg.SP, imm 0x8000);
        Insn.Mov (Reg.R0, imm 5);
        Insn.Mov (Reg.R1, imm 6);
        Insn.Stm (Reg.SP, [ Reg.R0; Reg.R1 ]);
        Insn.Mov (Reg.R0, imm 0);
        Insn.Mov (Reg.R1, imm 0);
        Insn.Ldm (Reg.SP, [ Reg.R0; Reg.R1 ]);
      ]
  in
  checki "pop r0" 5 (Cpu.get cpu Reg.R0);
  checki "pop r1" 6 (Cpu.get cpu Reg.R1);
  checki "sp restored" 0x8000 (Cpu.get cpu Reg.SP);
  let multi =
    List.filter
      (fun e ->
        match Event.range e with
        | Some r -> Range.length r = 8
        | None -> false)
      events
  in
  checki "8-byte transfer events" 2 (List.length multi)

let test_branching () =
  (* a loop summing 1..5 *)
  let a = Asm.create () in
  Asm.emit a (Insn.Mov (Reg.R0, imm 0));
  Asm.emit a (Insn.Mov (Reg.R1, imm 1));
  Asm.label a "loop";
  Asm.emit a (Insn.Cmp (Reg.R1, imm 5));
  Asm.branch a Cond.Gt "end";
  Asm.emit a (Insn.Alu (Insn.Add, false, Reg.R0, Reg.R0, rg Reg.R1));
  Asm.emit a (Insn.Alu (Insn.Add, false, Reg.R1, Reg.R1, imm 1));
  Asm.branch a Cond.Always "loop";
  Asm.label a "end";
  Asm.ret a;
  let m = Memory.create () in
  let cpu = Cpu.create ~sink:(fun _ _ -> ()) m in
  Cpu.run cpu (Asm.assemble a);
  checki "loop sum" 15 (Cpu.get cpu Reg.R0)

let test_flags_from_alu () =
  let cpu, _ =
    run_frag
      [
        Insn.Mov (Reg.R0, imm 1);
        Insn.Alu (Insn.Sub, true, Reg.R0, Reg.R0, imm 1);
        (* subs set flags against zero: result 0 -> Eq holds *)
        Insn.Mov (Reg.R1, imm 0);
        Insn.B (Cond.Ne, 5);
        Insn.Mov (Reg.R1, imm 42);
      ]
  in
  checki "flag-taken path" 42 (Cpu.get cpu Reg.R1)

let test_counters_and_pids () =
  let m = Memory.create () in
  let cpu = Cpu.create ~pid:7 ~sink:(fun _ _ -> ()) m in
  let frag =
    let a = Asm.create () in
    Asm.emit a Insn.Nop;
    Asm.emit a Insn.Nop;
    Asm.ret a;
    Asm.assemble a
  in
  Cpu.run cpu frag;
  checki "counter pid 7" 3 (Cpu.counter cpu);
  Cpu.set_pid cpu 8;
  checki "fresh counter pid 8" 0 (Cpu.counter cpu);
  Cpu.run cpu frag;
  checki "counter pid 8" 3 (Cpu.counter cpu);
  Cpu.set_pid cpu 7;
  checki "pid 7 counter preserved" 3 (Cpu.counter cpu);
  checki "global seq" 6 (Cpu.global_seq cpu)

let test_fuel () =
  let a = Asm.create () in
  Asm.label a "spin";
  Asm.branch a Cond.Always "spin";
  let frag = Asm.assemble a in
  let m = Memory.create () in
  let cpu = Cpu.create ~sink:(fun _ _ -> ()) m in
  Alcotest.check_raises "fuel" Cpu.Fuel_exhausted (fun () ->
      Cpu.run ~fuel:1000 cpu frag)

let () =
  Alcotest.run "pift_machine"
    [
      ( "memory",
        [
          Alcotest.test_case "widths" `Quick test_memory_widths;
          Alcotest.test_case "pages" `Quick test_memory_pages;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "alu" `Quick test_alu;
          Alcotest.test_case "32-bit masking" `Quick test_masking;
          Alcotest.test_case "ubfx & udiv" `Quick test_bitfield_div;
          Alcotest.test_case "loads & stores" `Quick test_loads_stores;
          Alcotest.test_case "addressing modes" `Quick test_addressing_modes;
          Alcotest.test_case "dword & stm" `Quick test_dword_multi;
          Alcotest.test_case "ldm roundtrip" `Quick test_ldm_roundtrip;
          Alcotest.test_case "branching" `Quick test_branching;
          Alcotest.test_case "alu flags" `Quick test_flags_from_alu;
          Alcotest.test_case "counters & pids" `Quick test_counters_and_pids;
          Alcotest.test_case "fuel" `Quick test_fuel;
        ] );
    ]
