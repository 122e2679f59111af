(* Unit tests for Pift_arm: registers, conditions, instructions, the
   assembler. *)

module Reg = Pift_arm.Reg
module Cond = Pift_arm.Cond
module Insn = Pift_arm.Insn
module Asm = Pift_arm.Asm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let test_reg () =
  checki "r0 index" 0 (Reg.index Reg.R0);
  checki "pc index" 15 (Reg.index Reg.PC);
  Array.iteri
    (fun i r -> checkb "roundtrip" true (Reg.equal (Reg.of_index i) r))
    Reg.all;
  checkb "succ r0" true (Reg.equal (Reg.succ Reg.R0) Reg.R1);
  checkb "succ r12" true (Reg.equal (Reg.succ Reg.R12) Reg.SP);
  Alcotest.check_raises "succ pc"
    (Invalid_argument "Reg.succ: no successor of PC") (fun () ->
      ignore (Reg.succ Reg.PC));
  Alcotest.check_raises "of_index range"
    (Invalid_argument "Reg.of_index: out of range") (fun () ->
      ignore (Reg.of_index 16));
  (* interpreter aliases from the paper's listings *)
  checks "rPC" "r4" (Reg.to_string Reg.rpc);
  checks "rFP" "r5" (Reg.to_string Reg.rfp);
  checks "rINST" "r7" (Reg.to_string Reg.rinst);
  checks "rIBASE" "r8" (Reg.to_string Reg.ribase);
  checks "sp" "sp" (Reg.to_string Reg.SP)

let test_cond () =
  let t c fst snd expect =
    checkb
      (Printf.sprintf "%s %x %x" (Cond.to_string c) fst snd)
      expect
      (Cond.holds c ~fst ~snd)
  in
  t Cond.Always 0 1 true;
  t Cond.Eq 5 5 true;
  t Cond.Eq 5 6 false;
  t Cond.Ne 5 6 true;
  (* signed: 0xFFFFFFFF is -1 *)
  t Cond.Lt 0xFFFF_FFFF 0 true;
  t Cond.Ge 0 0xFFFF_FFFF true;
  t Cond.Gt 1 0xFFFF_FFFF true;
  t Cond.Le 0xFFFF_FFFF 0xFFFF_FFFF true;
  (* unsigned: 0xFFFFFFFF is huge *)
  t Cond.Hi 0xFFFF_FFFF 0 true;
  t Cond.Lo 0 0xFFFF_FFFF true;
  t Cond.Hs 5 5 true;
  t Cond.Ls 5 5 true

let test_insn_meta () =
  checki "byte" 1 (Insn.width_bytes Insn.Byte);
  checki "half" 2 (Insn.width_bytes Insn.Half);
  checki "word" 4 (Insn.width_bytes Insn.Word);
  checki "dword" 8 (Insn.width_bytes Insn.Dword);
  let ldr = Insn.Ldr (Insn.Half, Reg.R6, Insn.Offset (Reg.R1, Insn.Reg Reg.R4)) in
  let str = Insn.Str (Insn.Word, Reg.R0, Insn.Offset (Reg.R5, Insn.Imm 0)) in
  checkb "ldr is load" true (Insn.is_load ldr);
  checkb "ldr not store" false (Insn.is_store ldr);
  checkb "str is store" true (Insn.is_store str);
  checkb "ldm is load" true (Insn.is_load (Insn.Ldm (Reg.SP, [ Reg.R0 ])));
  checkb "stm is store" true (Insn.is_store (Insn.Stm (Reg.SP, [ Reg.R0 ])));
  checkb "mov not memory" false
    (Insn.is_memory (Insn.Mov (Reg.R0, Insn.Imm 1)))

let test_insn_pp () =
  let s i = Insn.to_string i in
  checks "fig1 ldrh" "ldrh r6, [r1, r4]"
    (s (Insn.Ldr (Insn.Half, Reg.R6, Insn.Offset (Reg.R1, Insn.Reg Reg.R4))));
  checks "get_vreg" "ldr r1, [r5, r3, lsl #2]"
    (s
       (Insn.Ldr
          ( Insn.Word,
            Reg.R1,
            Insn.Offset (Reg.R5, Insn.Shifted (Reg.R3, Insn.Lsl 2)) )));
  checks "fetch" "ldrh r7, [r4, #4]!"
    (s (Insn.Ldr (Insn.Half, Reg.R7, Insn.Pre (Reg.R4, Insn.Imm 4))));
  checks "adds" "adds r3, r3, #1"
    (s (Insn.Alu (Insn.Add, true, Reg.R3, Reg.R3, Insn.Imm 1)));
  checks "mul" "mul r0, r1, r0"
    (s (Insn.Alu (Insn.Mul, false, Reg.R0, Reg.R1, Insn.Reg Reg.R0)));
  checks "ubfx" "ubfx r9, r7, #8, #4" (s (Insn.Ubfx (Reg.R9, Reg.R7, 8, 4)));
  checks "branch" "bge .L7" (s (Insn.B (Cond.Ge, 7)));
  checks "bx lr" "bx lr" (s (Insn.Bx Reg.LR));
  checks "stmdb" "stmdb sp!, {r4, r5, r7}"
    (s (Insn.Stm (Reg.SP, [ Reg.R4; Reg.R5; Reg.R7 ])))

let test_asm_labels () =
  let a = Asm.create () in
  Asm.emit a (Insn.Mov (Reg.R0, Insn.Imm 0));
  Asm.label a "loop";
  checki "here" 1 (Asm.here a);
  Asm.emit a (Insn.Alu (Insn.Add, false, Reg.R0, Reg.R0, Insn.Imm 1));
  Asm.emit a (Insn.Cmp (Reg.R0, Insn.Imm 10));
  Asm.branch a Cond.Lt "loop";
  Asm.branch a Cond.Always "end";
  Asm.label a "end";
  Asm.ret a;
  let frag = Asm.assemble a in
  checki "length" 6 (Array.length frag);
  (match frag.(3) with
  | Insn.B (Cond.Lt, 1) -> ()
  | i -> Alcotest.failf "backward branch wrong: %s" (Insn.to_string i));
  match frag.(4) with
  | Insn.B (Cond.Always, 5) -> ()
  | i -> Alcotest.failf "forward branch wrong: %s" (Insn.to_string i)

let test_asm_errors () =
  let a = Asm.create () in
  Asm.branch a Cond.Always "nowhere";
  (try
     ignore (Asm.assemble a);
     Alcotest.fail "expected failure on unbound label"
   with Failure _ -> ());
  let b = Asm.create () in
  Asm.label b "x";
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Asm.label: \"x\" already bound") (fun () ->
      Asm.label b "x")

let test_asm_call () =
  let a = Asm.create () in
  Asm.call a "f";
  Asm.ret a;
  Asm.label a "f";
  Asm.ret a;
  let frag = Asm.assemble a in
  match frag.(0) with
  | Insn.Bl 2 -> ()
  | i -> Alcotest.failf "call wrong: %s" (Insn.to_string i)

(* --- Parser ------------------------------------------------------------ *)

module Parse = Pift_arm.Parse

let test_parse_basic () =
  let ok s expect =
    match Parse.insn s with
    | Ok i -> checks s expect (Insn.to_string i)
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok "ldrh r6, [r1, r4]" "ldrh r6, [r1, r4]";
  ok "ldr r1, [r5, r3, lsl #2]" "ldr r1, [r5, r3, lsl #2]";
  ok "ldrh r7, [r4, #4]!" "ldrh r7, [r4, #4]!";
  ok "strb r0, [r1], #-1" "strb r0, [r1], #-1";
  ok "adds r3, r3, #1" "adds r3, r3, #1";
  ok "mul r0, r1, r0" "mul r0, r1, r0";
  ok "MOV R0, #7" "mov r0, #7";
  ok "bge .L7" "bge .L7";
  ok "b .L0" "b .L0";
  ok "bl .L3" "bl .L3";
  ok "bx lr" "bx lr";
  ok "stmdb sp!, {r4, r5, r7}" "stmdb sp!, {r4, r5, r7}";
  ok "ldmia sp!, {r0}" "ldmia sp!, {r0}";
  ok "ubfx r9, r7, #8, #4" "ubfx r9, r7, #8, #4";
  ok "udiv r3, r1, r2" "udiv r3, r1, r2";
  ok "nop" "nop"

let test_parse_errors () =
  let bad s =
    match Parse.insn s with
    | Error _ -> ()
    | Ok i -> Alcotest.failf "parse %S accepted as %s" s (Insn.to_string i)
  in
  bad "frobnicate r0";
  bad "mov r99, #1";
  bad "ldr r0";
  bad "ldr r0, r1";
  bad "b somewhere" (* symbolic labels need a fragment *);
  bad "add r0, #1" (* missing source register *);
  bad ""

let test_parse_fragment () =
  let frag =
    Parse.fragment_exn
      {|
        @ a char-copy loop
        mov r3, #0
      loop:
        cmp r3, r5
        bge end
        ldrh r6, [r1, r3, lsl #1]
        strh r6, [r0, r3, lsl #1]
        add r3, r3, #1
        b loop
      end:
        bx lr
      |}
  in
  checki "length" 8 (Array.length frag);
  (match frag.(2) with
  | Insn.B (Cond.Ge, 7) -> ()
  | i -> Alcotest.failf "bge resolved wrong: %s" (Insn.to_string i));
  (* execute it for good measure *)
  let m = Pift_machine.Memory.create () in
  let cpu = Pift_machine.Cpu.create ~sink:(fun _ _ -> ()) m in
  Pift_machine.Memory.write_u16 m 0x1000 0xCAFE;
  Pift_machine.Cpu.set cpu Reg.R0 0x2000;
  Pift_machine.Cpu.set cpu Reg.R1 0x1000;
  Pift_machine.Cpu.set cpu Reg.R5 1;
  Pift_machine.Cpu.run cpu frag;
  checki "copied" 0xCAFE (Pift_machine.Memory.read_u16 m 0x2000)

(* Round trip: any printable instruction parses back to itself. *)
let insn_gen =
  QCheck2.Gen.(
    let reg = map Reg.of_index (int_range 0 14) in
    let data_reg = map Reg.of_index (int_range 0 12) in
    let low_reg = map Reg.of_index (int_range 0 11) in
    let shift =
      let* n = int_range 0 8 in
      oneofl [ Insn.Lsl n; Insn.Lsr n; Insn.Asr n ]
    in
    let operand =
      oneof
        [
          map (fun n -> Insn.Imm n) (int_range (-64) 1000);
          map (fun r -> Insn.Reg r) reg;
          (let* r = reg and* s = shift in
           return (Insn.Shifted (r, s)));
        ]
    in
    let amode =
      oneof
        [
          (let* rn = reg and* op = operand in
           return (Insn.Offset (rn, op)));
          (let* rn = reg and* op = operand in
           return (Insn.Pre (rn, op)));
          (let* rn = reg and* op = operand in
           return (Insn.Post (rn, op)));
        ]
    in
    let width = oneofl [ Insn.Byte; Insn.Half; Insn.Word; Insn.Dword ] in
    let alu =
      oneofl
        [
          Insn.Add; Insn.Sub; Insn.Rsb; Insn.Mul; Insn.And; Insn.Orr;
          Insn.Eor; Insn.Lsl_op; Insn.Lsr_op; Insn.Asr_op;
        ]
    in
    let cond =
      oneofl
        Cond.[ Always; Eq; Ne; Lt; Le; Gt; Ge; Lo; Hs; Hi; Ls ]
    in
    oneof
      [
        (let* w = width and* r = low_reg and* am = amode in
         return (Insn.Ldr (w, r, am)));
        (let* w = width and* r = low_reg and* am = amode in
         return (Insn.Str (w, r, am)));
        (let* r = data_reg and* op = operand in
         return (Insn.Mov (r, op)));
        (let* r = data_reg and* op = operand in
         return (Insn.Mvn (r, op)));
        (let* op = alu and* flags = bool and* d = data_reg and* s = data_reg
         and* o = operand in
         return (Insn.Alu (op, flags, d, s, o)));
        (let* d = data_reg and* s = data_reg and* lsb = int_range 0 24
         and* w = int_range 1 8 in
         return (Insn.Ubfx (d, s, lsb, w)));
        (let* d = data_reg and* n = data_reg and* m = data_reg in
         return (Insn.Udiv (d, n, m)));
        (let* r = data_reg and* op = operand in
         return (Insn.Cmp (r, op)));
        (let* c = cond and* t = int_range 0 99 in
         return (Insn.B (c, t)));
        map (fun t -> Insn.Bl t) (int_range 0 99);
        map (fun r -> Insn.Bx r) reg;
        (let* rn = reg
         and* regs = list_size (int_range 1 4) data_reg in
         return (Insn.Ldm (rn, List.sort_uniq compare regs)));
        (let* rn = reg
         and* regs = list_size (int_range 1 4) data_reg in
         return (Insn.Stm (rn, List.sort_uniq compare regs)));
        return Insn.Nop;
      ])

let prop_parse_roundtrip =
  QCheck2.Test.make ~name:"parse (pp insn) = insn" ~count:1000 insn_gen
    (fun i ->
      match Parse.insn (Insn.to_string i) with
      | Ok j -> j = i
      | Error _ -> false)

let () =
  Alcotest.run "pift_arm"
    [
      ("reg", [ Alcotest.test_case "registers" `Quick test_reg ]);
      ("cond", [ Alcotest.test_case "condition codes" `Quick test_cond ]);
      ( "insn",
        [
          Alcotest.test_case "metadata" `Quick test_insn_meta;
          Alcotest.test_case "disassembly" `Quick test_insn_pp;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "calls" `Quick test_asm_call;
        ] );
      ( "parse",
        [
          Alcotest.test_case "basics" `Quick test_parse_basic;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "fragments" `Quick test_parse_fragment;
          QCheck_alcotest.to_alcotest prop_parse_roundtrip;
        ] );
    ]
