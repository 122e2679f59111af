(* Tests for the extension features: the dead-code scrubber (§7 compiler
   countermeasure), the evasion workloads, JIT-mode execution (§4.1), and
   recording serialization. *)

module Range = Pift_util.Range
module Insn = Pift_arm.Insn
module Reg = Pift_arm.Reg
module Asm = Pift_arm.Asm
module Scrubber = Pift_arm.Scrubber
module Cpu = Pift_machine.Cpu
module Memory = Pift_machine.Memory
module Policy = Pift_core.Policy
module Vm = Pift_dalvik.Vm
module Translate = Pift_dalvik.Translate
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io
module Trace = Pift_trace.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let imm n = Insn.Imm n

(* --- Scrubber -------------------------------------------------------------- *)

let frag insns =
  let a = Asm.create () in
  Asm.emit_all a insns;
  Asm.ret a;
  Asm.assemble a

let test_scrubber_removes_dummy_block () =
  let before =
    frag
      ([ Insn.Ldr (Insn.Half, Reg.R6, Insn.Offset (Reg.R1, imm 0)) ]
      @ List.init 10 (fun _ ->
            Insn.Alu (Insn.Add, false, Reg.R10, Reg.R10, imm 1))
      @ [ Insn.Str (Insn.Half, Reg.R6, Insn.Offset (Reg.R0, imm 0)) ])
  in
  let after = Scrubber.scrub before in
  checki "dummy block removed" 10 (Scrubber.removed ~before ~after);
  (* semantics preserved: run both on fresh machines, compare the store *)
  let run f =
    let m = Memory.create () in
    let cpu = Cpu.create ~sink:(fun _ _ -> ()) m in
    Memory.write_u16 m 0x1000 0xBEEF;
    Cpu.set cpu Reg.R0 0x2000;
    Cpu.set cpu Reg.R1 0x1000;
    Cpu.run cpu f;
    Memory.read_u16 m 0x2000
  in
  checki "same result" (run before) (run after)

let test_scrubber_keeps_contributing_ops () =
  let before =
    frag
      [
        Insn.Ldr (Insn.Half, Reg.R6, Insn.Offset (Reg.R1, imm 0));
        (* contributes to the stored value: must stay *)
        Insn.Alu (Insn.Eor, false, Reg.R6, Reg.R6, imm 0x20);
        (* dead: r9 never used *)
        Insn.Mov (Reg.R9, imm 7);
        Insn.Str (Insn.Half, Reg.R6, Insn.Offset (Reg.R0, imm 0));
      ]
  in
  let after = Scrubber.scrub before in
  checki "only the dead mov removed" 1 (Scrubber.removed ~before ~after);
  checkb "eor kept" true
    (Array.exists
       (function Insn.Alu (Insn.Eor, _, _, _, _) -> true | _ -> false)
       after)

let test_scrubber_respects_live_out () =
  let before = frag [ Insn.Mov (Reg.R9, imm 7) ] in
  let after_default = Scrubber.scrub before in
  checki "scratch reg dead by default" 1
    (Scrubber.removed ~before ~after:after_default);
  let after_live = Scrubber.scrub ~live_out:[ Reg.R9; Reg.LR ] before in
  checki "kept when live-out" 0 (Scrubber.removed ~before ~after:after_live)

let test_scrubber_bails_on_branches () =
  let a = Asm.create () in
  Asm.label a "top";
  Asm.emit a (Insn.Alu (Insn.Add, false, Reg.R10, Reg.R10, imm 1));
  Asm.emit a (Insn.Cmp (Reg.R10, imm 5));
  Asm.branch a Pift_arm.Cond.Lt "top";
  Asm.ret a;
  let f = Asm.assemble a in
  checkb "not straight-line" false (Scrubber.straight_line f);
  checki "unchanged" 0 (Scrubber.removed ~before:f ~after:(Scrubber.scrub f))

let test_scrubber_flags_and_addressing () =
  let before =
    frag
      [
        (* sets flags: must stay even though r3 is scratch *)
        Insn.Alu (Insn.Sub, true, Reg.R3, Reg.R3, imm 1);
        (* feeds the address of a kept load: must stay *)
        Insn.Mov (Reg.R2, imm 0x1000);
        Insn.Ldr (Insn.Word, Reg.R4, Insn.Offset (Reg.R2, imm 0));
      ]
  in
  let after = Scrubber.scrub before in
  checki "nothing removed" 0 (Scrubber.removed ~before ~after)

let test_relocate_stores () =
  (* the live-dummy pattern: pads feed a later accumulator store, so the
     scrubber keeps them; relocation hoists the data store anyway *)
  let before =
    frag
      ([ Insn.Ldr (Insn.Half, Reg.R6, Insn.Offset (Reg.R1, imm 0)) ]
      @ List.init 8 (fun _ ->
            Insn.Alu (Insn.Add, false, Reg.R10, Reg.R10, imm 1))
      @ [
          Insn.Str (Insn.Half, Reg.R6, Insn.Offset (Reg.R0, imm 0));
          Insn.Str (Insn.Word, Reg.R10, Insn.Offset (Reg.R2, imm 0));
        ])
  in
  let scrubbed = Scrubber.scrub before in
  checki "live pads survive scrubbing" 0
    (Scrubber.removed ~before ~after:scrubbed);
  let after = Scrubber.relocate_stores scrubbed in
  (* data store now immediately follows the load *)
  (match after.(1) with
  | Insn.Str (Insn.Half, _, _) -> ()
  | i -> Alcotest.failf "store not hoisted: %s" (Insn.to_string i));
  (* the accumulator store stays below its producers *)
  (match after.(Array.length after - 2) with
  | Insn.Str (Insn.Word, _, _) -> ()
  | i -> Alcotest.failf "accumulator store moved wrongly: %s" (Insn.to_string i));
  (* semantics preserved *)
  let run f =
    let m = Memory.create () in
    let cpu = Cpu.create ~sink:(fun _ _ -> ()) m in
    Memory.write_u16 m 0x1000 0xBEEF;
    Cpu.set cpu Reg.R0 0x2000;
    Cpu.set cpu Reg.R1 0x1000;
    Cpu.set cpu Reg.R2 0x3000;
    Cpu.run cpu f;
    (Memory.read_u16 m 0x2000, Memory.read_u32 m 0x3000)
  in
  checkb "same results" true (run before = run after)

let test_relocate_respects_dependencies () =
  (* a store whose data is produced mid-block must not cross its def *)
  let before =
    frag
      [
        Insn.Mov (Reg.R9, imm 1);
        Insn.Alu (Insn.Add, false, Reg.R6, Reg.R9, imm 41);
        Insn.Alu (Insn.Add, false, Reg.R10, Reg.R10, imm 1);
        Insn.Mov (Reg.R0, imm 0x2000);
        Insn.Str (Insn.Word, Reg.R6, Insn.Offset (Reg.R0, imm 0));
      ]
  in
  let after = Scrubber.relocate_stores before in
  (* the store needs r0 (defined at index 3): it cannot move above it *)
  (match after.(4) with
  | Insn.Str _ -> ()
  | i -> Alcotest.failf "store moved past its address def: %s" (Insn.to_string i));
  (* memory order is preserved across other memory ops *)
  let mem_pair =
    frag
      [
        Insn.Mov (Reg.R0, imm 0x2000);
        Insn.Mov (Reg.R6, imm 7);
        Insn.Str (Insn.Word, Reg.R6, Insn.Offset (Reg.R0, imm 0));
        Insn.Alu (Insn.Add, false, Reg.R10, Reg.R10, imm 1);
        Insn.Str (Insn.Word, Reg.R6, Insn.Offset (Reg.R0, imm 4));
      ]
  in
  let after = Scrubber.relocate_stores mem_pair in
  match (after.(2), after.(3)) with
  | Insn.Str (_, _, Insn.Offset (_, Insn.Imm 0)),
    Insn.Str (_, _, Insn.Offset (_, Insn.Imm 4)) ->
      ()
  | _ -> Alcotest.fail "store order not preserved"

(* Property: on random straight-line fragments, scrubbing and relocation
   preserve the memory image and the callee-saved registers. *)
let frag_gen =
  QCheck2.Gen.(
    let data_reg =
      map
        (fun i -> [| Reg.R1; Reg.R2; Reg.R3; Reg.R6; Reg.R9; Reg.R10;
                     Reg.R11; Reg.R12 |].(i))
        (int_range 0 7)
    in
    let offset = map (fun i -> Insn.Imm (4 * i)) (int_range 0 15) in
    let insn =
      oneof
        [
          (let* d = data_reg and* v = int_range 0 999 in
           return (Insn.Mov (d, Insn.Imm v)));
          (let* d = data_reg and* s = data_reg in
           return (Insn.Mov (d, Insn.Reg s)));
          (let* d = data_reg and* s = data_reg and* v = int_range 0 99 in
           return (Insn.Alu (Insn.Add, false, d, s, Insn.Imm v)));
          (let* d = data_reg and* s = data_reg and* o = data_reg in
           return (Insn.Alu (Insn.Eor, false, d, s, Insn.Reg o)));
          (let* d = data_reg and* off = offset in
           return (Insn.Ldr (Insn.Word, d, Insn.Offset (Reg.R0, off))));
          (let* s = data_reg and* off = offset in
           return (Insn.Str (Insn.Word, s, Insn.Offset (Reg.R0, off))));
        ]
    in
    list_size (int_range 1 30) insn)

let prop_scrub_preserves_semantics =
  QCheck2.Test.make
    ~name:"scrub + relocate preserve memory and callee-saved state"
    ~count:300 frag_gen (fun insns ->
      let original = frag insns in
      let transformed =
        Scrubber.relocate_stores (Scrubber.scrub original)
      in
      let run f =
        let m = Memory.create () in
        let cpu = Cpu.create ~sink:(fun _ _ -> ()) m in
        Cpu.set cpu Reg.R0 0x1000;
        (* deterministic nonzero starting registers *)
        Array.iteri
          (fun i r -> if i <= 12 && i <> 0 then Cpu.set cpu r (i * 17))
          Reg.all;
        for i = 0 to 15 do
          Memory.write_u32 m (0x1000 + (4 * i)) (i * 1001)
        done;
        Cpu.run cpu f;
        ( List.init 16 (fun i -> Memory.read_u32 m (0x1000 + (4 * i))),
          List.map (Cpu.get cpu) [ Reg.R4; Reg.R5; Reg.R7; Reg.R8 ] )
      in
      run original = run transformed)

(* --- Evasion --------------------------------------------------------------- *)

let test_evasion_live_variant () =
  let run app policy =
    (Recorded.replay ~policy (Recorded.record app)).Recorded.flagged
  in
  checkb "live-dummy attack evades" false
    (run Pift_workloads.Evasion.attack_live Policy.default);
  checkb "relocation restores detection" true
    (run Pift_workloads.Evasion.hardened_live Policy.default)

let test_evasion_pair () =
  let run app policy =
    (Recorded.replay ~policy (Recorded.record app)).Recorded.flagged
  in
  let big = Policy.make ~ni:20 ~nt:10 () in
  checkb "attack evades the default window" false
    (run Pift_workloads.Evasion.attack Policy.default);
  checkb "attack evades even (20,10)" false
    (run Pift_workloads.Evasion.attack big);
  checkb "full DIFT still catches the attack" true
    (Recorded.replay_dift (Recorded.record Pift_workloads.Evasion.attack))
      .Recorded.dift_flagged;
  checkb "hardened runtime restores detection" true
    (run Pift_workloads.Evasion.hardened Policy.default)

(* --- JIT mode ---------------------------------------------------------------- *)

let test_jit_optimize_removes_overhead () =
  let f = Translate.fragment (Translate.Plain (Pift_dalvik.Bytecode.Move (0, 1))) in
  let j = Translate.jit_optimize f in
  checkb "shorter" true (Array.length j < Array.length f);
  checkb "no fetch left" true
    (not
       (Array.exists
          (function
            | Insn.Ldr (Insn.Half, r, Insn.Pre _) -> Reg.equal r Reg.rinst
            | _ -> false)
          j));
  (* GET/SET_VREG memory traffic preserved *)
  checkb "vreg load kept" true (Array.exists Insn.is_load j);
  checkb "vreg store kept" true (Array.exists Insn.is_store j)

let test_jit_semantics_match () =
  (* the factorial program computes the same value in both modes *)
  let module B = Pift_dalvik.Bytecode in
  let methods () =
    [
      Pift_dalvik.Method.make ~name:"fact" ~registers:5 ~ins:1
        [
          B.Const4 (0, 1);
          B.If_test (B.Gt, 4, 0, 3);
          B.Return 4;
          B.Binop_lit8 (B.Sub, 1, 4, 1);
          B.Invoke (B.Static, "fact", [ 1 ]);
          B.Move_result 2;
          B.Binop (B.Mul, 3, 2, 4);
          B.Return 3;
        ];
      Pift_dalvik.Method.make ~name:"main" ~registers:3 ~ins:0
        [
          B.Const4 (0, 6);
          B.Invoke (B.Static, "fact", [ 0 ]);
          B.Move_result 1;
          B.Return 1;
        ];
    ]
  in
  let run mode =
    let env = Pift_runtime.Env.create ~sink:(fun _ _ -> ()) () in
    let vm =
      Vm.create ~mode env
        (Pift_dalvik.Program.make ~entry:"main" (methods ()))
    in
    Vm.call vm "main" []
  in
  checki "interp 6!" 720 (run Vm.Interpreter);
  checki "jit 6!" 720 (run Vm.Jit)

let test_jit_shorter_traces_same_verdict () =
  let app = Option.get (Pift_workloads.Droidbench.find "StringConcat1") in
  let ri = Recorded.record ~mode:Vm.Interpreter app in
  let rj = Recorded.record ~mode:Vm.Jit app in
  checkb "jit trace shorter" true
    (Trace.length rj.Recorded.trace < Trace.length ri.Recorded.trace);
  let f r = (Recorded.replay ~policy:Policy.default r).Recorded.flagged in
  checkb "both detect" true (f ri && f rj)

(* --- Trace serialization ------------------------------------------------------ *)

let test_trace_io_roundtrip () =
  let app = Option.get (Pift_workloads.Droidbench.find "BatchLeak1") in
  let original = Recorded.record app in
  let path = Filename.temp_file "pift" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save original path;
      let loaded = Trace_io.load path in
      Alcotest.(check string) "name" original.Recorded.name
        loaded.Recorded.name;
      checki "pid" original.Recorded.pid loaded.Recorded.pid;
      checki "bytecodes" original.Recorded.bytecodes
        loaded.Recorded.bytecodes;
      checki "events"
        (Trace.length original.Recorded.trace)
        (Trace.length loaded.Recorded.trace);
      checki "loads"
        (Trace.loads original.Recorded.trace)
        (Trace.loads loaded.Recorded.trace);
      checki "markers"
        (Array.length original.Recorded.markers)
        (Array.length loaded.Recorded.markers);
      (* the PIFT analysis gives identical answers on the loaded copy *)
      let sweep r =
        List.map
          (fun (ni, nt) ->
            let rep = Recorded.replay ~policy:(Policy.make ~ni ~nt ()) r in
            ( rep.Recorded.flagged,
              rep.Recorded.stats.Pift_core.Tracker.taint_ops,
              rep.Recorded.stats.Pift_core.Tracker.max_tainted_bytes ))
          [ (2, 1); (3, 2); (13, 3); (20, 10) ]
      in
      checkb "identical analysis" true (sweep original = sweep loaded))

(* [Trace_io.load (save r)] in [format], through a temporary file. *)
let reload format r =
  let path = Filename.temp_file "pift" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format r path;
      Trace_io.load path)

(* A trace file holds the Fig. 5 record and so does [Event.t]: every
   event comes back equal under [=], in either format. *)
let test_trace_io_events_exact () =
  let original =
    Recorded.record (Option.get (Pift_workloads.Droidbench.find "BatchLeak1"))
  in
  List.iter
    (fun format ->
      let loaded = reload format original in
      let name = Trace_io.format_to_string format in
      checki (name ^ " events")
        (Trace.length original.Recorded.trace)
        (Trace.length loaded.Recorded.trace);
      for i = 0 to Trace.length original.Recorded.trace - 1 do
        if Trace.get original.Recorded.trace i <> Trace.get loaded.Recorded.trace i
        then Alcotest.failf "%s: event %d differs after the round trip" name i
      done;
      checkb (name ^ " markers equal") true
        (original.Recorded.markers = loaded.Recorded.markers))
    [ Trace_io.Text; Trace_io.Binary ]

(* A decoded recording has no instructions, so full DIFT refuses it
   instead of running a made-up instruction model; the live recording
   it was saved from still runs. *)
let test_dift_refuses_decoded () =
  let original =
    Recorded.record (Option.get (Pift_workloads.Droidbench.find "BatchLeak1"))
  in
  checkb "recording keeps instructions" true
    (Trace.has_insns original.Recorded.trace);
  checkb "live full DIFT flags the leak" true
    (Recorded.replay_dift original).Recorded.dift_flagged;
  List.iter
    (fun format ->
      let loaded = reload format original in
      checkb "decoded trace has none" false
        (Trace.has_insns loaded.Recorded.trace);
      Alcotest.check_raises
        (Trace_io.format_to_string format ^ " recording refused")
        (Invalid_argument
           "Recorded.replay_dift: recording BatchLeak1 was decoded from a \
            trace file and has no instructions; full DIFT needs a live \
            recording")
        (fun () -> ignore (Recorded.replay_dift loaded)))
    [ Trace_io.Text; Trace_io.Binary ]

(* Marker kinds are free-form strings from the app's source/sink
   registrations; the file format is space-delimited, so kinds carrying
   spaces (or newlines, or literal percent signs) must be escaped on
   write and restored on read.  Before the escaping fix, a spaced SRC
   kind failed the load with "unrecognised record" and a spaced SNK kind
   silently truncated at the first space. *)
let test_trace_io_adversarial_kinds () =
  let module Event = Pift_trace.Event in
  let trace = Trace.create () in
  Trace.add trace
    {
      Event.seq = 1;
      k = 1;
      pid = 7;
      access = Event.Load (Range.make 100 103);
    };
  let kinds =
    [
      "IMEI number";
      "net send";
      "100% plain";
      "tabs\tand spaces";
      "multi\nline\rkind";
      "%20literal percent-escape";
    ]
  in
  let markers =
    List.mapi
      (fun i kind ->
        if i mod 2 = 0 then
          (i, Recorded.Source { kind; range = Range.make 100 103 })
        else (i, Recorded.Sink { kind; ranges = [ Range.make 100 103 ] }))
      kinds
  in
  let original =
    {
      Recorded.name = "adversarial";
      trace;
      markers = Array.of_list markers;
      pid = 7;
      bytecodes = 1;
      frag_hits = 0;
      frag_misses = 0;
    }
  in
  let path = Filename.temp_file "pift" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save original path;
      let loaded = Trace_io.load path in
      let kind_of = function
        | Recorded.Source { kind; _ } | Recorded.Sink { kind; _ } -> kind
      in
      checki "marker count"
        (Array.length original.Recorded.markers)
        (Array.length loaded.Recorded.markers);
      Array.iteri
        (fun i (seq, m) ->
          let seq', m' = loaded.Recorded.markers.(i) in
          checki "marker seq" seq seq';
          Alcotest.(check string) "marker kind" (kind_of m) (kind_of m'))
        original.Recorded.markers;
      checkb "markers equal" true
        (original.Recorded.markers = loaded.Recorded.markers))

let test_trace_io_rejects_garbage () =
  let path = Filename.temp_file "pift" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      try
        ignore (Trace_io.load path);
        Alcotest.fail "garbage accepted"
      with Failure _ -> ())

(* The binary writer produces the same recording back, and analysing
   either serialisation gives identical answers. *)
let test_trace_io_binary_roundtrip () =
  let app = Option.get (Pift_workloads.Droidbench.find "BatchLeak1") in
  let original = Recorded.record app in
  let text_path = Filename.temp_file "pift" ".trace" in
  let bin_path = Filename.temp_file "pift" ".btrace" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove text_path;
      Sys.remove bin_path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Text original text_path;
      Trace_io.save ~format:Trace_io.Binary original bin_path;
      checkb "binary detected" true
        (Trace_io.detect_format bin_path = Trace_io.Binary);
      checkb "text detected" true
        (Trace_io.detect_format text_path = Trace_io.Text);
      let from_text = Trace_io.load text_path in
      let from_bin = Trace_io.load bin_path in
      Alcotest.(check string) "name" from_text.Recorded.name
        from_bin.Recorded.name;
      checki "pid" from_text.Recorded.pid from_bin.Recorded.pid;
      checki "bytecodes" from_text.Recorded.bytecodes
        from_bin.Recorded.bytecodes;
      checki "events"
        (Trace.length from_text.Recorded.trace)
        (Trace.length from_bin.Recorded.trace);
      checkb "markers equal" true
        (from_text.Recorded.markers = from_bin.Recorded.markers);
      let replay r =
        let rep = Recorded.replay ~policy:Policy.default r in
        (rep.Recorded.flagged, rep.Recorded.verdicts, rep.Recorded.stats)
      in
      checkb "identical analysis" true (replay from_text = replay from_bin))

(* --- round-trip property over both formats ------------------------------ *)

module Rng = Pift_util.Rng

(* Synthetic recordings stressing the serialisation edge cases: empty
   marker kinds, kinds full of delimiters and escape look-alikes,
   markers sharing one sequence number, markers between event sequence
   numbers (negative seq deltas in the binary stream), and addresses
   jumping backwards. *)
let gen_recorded rng =
  let module Event = Pift_trace.Event in
  let gen_kind rng =
    match Rng.int rng 6 with
    | 0 -> ""
    | 1 -> "IMEI number"
    | 2 -> "100%"
    | 3 -> "a\nb\rc d"
    | 4 -> "%1_"
    | _ -> "plain"
  in
  let gen_range rng = Range.of_len (Rng.int rng 0x10000) (1 + Rng.int rng 64) in
  let trace = Trace.create () in
  let markers = ref [] in
  let seq = ref 0 in
  let n = Rng.int rng 40 in
  for _ = 1 to n do
    seq := !seq + 2 + Rng.int rng 4;
    let k = !seq + Rng.int rng 5 in
    let pid = 1 + Rng.int rng 3 in
    (match Rng.int rng 4 with
    | 0 ->
        Trace.add trace
          { Event.seq = !seq; k; pid; access = Event.Other }
    | 1 | 2 ->
        Trace.add trace
          {
            Event.seq = !seq;
            k;
            pid;
            access = Event.Load (gen_range rng);
          }
    | _ ->
        Trace.add trace
          {
            Event.seq = !seq;
            k;
            pid;
            access = Event.Store (gen_range rng);
          });
    if Rng.int rng 3 = 0 then begin
      (* mseq may sit one below the event's seq — the writer then emits
         it after a larger event seq, so the binary delta goes negative *)
      let mseq = !seq - Rng.int rng 2 in
      let marker rng =
        if Rng.int rng 2 = 0 then
          Recorded.Source { kind = gen_kind rng; range = gen_range rng }
        else
          Recorded.Sink
            {
              kind = gen_kind rng;
              ranges =
                (let nr = Rng.int rng 3 in
                 let rec go k acc =
                   if k = 0 then List.rev acc
                   else go (k - 1) (gen_range rng :: acc)
                 in
                 go nr []);
            }
      in
      markers := (mseq, marker rng) :: !markers;
      (* sometimes two markers on the same sequence number *)
      if Rng.int rng 4 = 0 then markers := (mseq, marker rng) :: !markers
    end
  done;
  {
    Recorded.name = "prop-recording";
    trace;
    markers = Array.of_list (List.rev !markers);
    pid = 1 + Rng.int rng 5;
    bytecodes = Rng.int rng 1000;
    frag_hits = 0;
    frag_misses = 0;
  }

(* Everything a trace file holds: header, events, markers. *)
let project (r : Recorded.t) =
  let evs = ref [] in
  Trace.iter (fun e -> evs := e :: !evs) r.Recorded.trace;
  ( r.Recorded.name,
    r.Recorded.pid,
    r.Recorded.bytecodes,
    List.rev !evs,
    Array.to_list r.Recorded.markers )

let describe_recorded (r : Recorded.t) =
  Printf.sprintf "%d events, %d markers"
    (Trace.length r.Recorded.trace)
    (Array.length r.Recorded.markers)

let roundtrip_prop format r =
  let path = Filename.temp_file "pift_prop" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format r path;
      match Trace_io.load path with
      | loaded ->
          if project loaded = project r then Ok ()
          else
            Error
              (Printf.sprintf "%s round-trip changed the recording"
                 (Trace_io.format_to_string format))
      | exception Failure msg ->
          Error
            (Printf.sprintf "%s round-trip rejected its own output: %s"
               (Trace_io.format_to_string format)
               msg))

let test_trace_io_roundtrip_property () =
  List.iter
    (fun format ->
      Prop.check_gen
        ~name:("round-trip " ^ Trace_io.format_to_string format)
        ~count:50 ~gen:gen_recorded
        ~shrink:(fun _ -> [])
        ~to_string:describe_recorded (roundtrip_prop format))
    [ Trace_io.Text; Trace_io.Binary ]

(* --- corrupt inputs are rejected with a position ------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let expect_rejection ~mentions path =
  match Trace_io.load path with
  | _ -> Alcotest.failf "corrupt trace accepted (wanted error with %S)" mentions
  | exception Failure msg ->
      checkb
        (Printf.sprintf "error %S mentions %S" msg mentions)
        true (contains msg mentions)
  | exception e ->
      Alcotest.failf "corrupt trace escaped as %s (wanted Failure with %S)"
        (Printexc.to_string e) mentions

let with_text_fixture lines f =
  let path = Filename.temp_file "pift" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        ("PIFT-TRACE 1" :: "name x" :: "pid 1" :: "bytecodes 0" :: lines);
      close_out oc;
      f path)

(* "%1_" is not a hex escape: int_of_string tolerates underscores, so
   the old check decoded it as 0x1.  It must be rejected, with the line
   number. *)
let test_trace_io_bad_escape () =
  with_text_fixture [ "M 1 SRC %1_ 100 4" ] (expect_rejection ~mentions:"line 5");
  with_text_fixture [ "M 1 SRC ok%zz 100 4" ]
    (expect_rejection ~mentions:"escape")

(* Non-positive lengths used to escape as a bare
   [Invalid_argument "Range.of_len"]; they must surface as positioned
   Trace_io errors. *)
let test_trace_io_zero_length_record () =
  with_text_fixture [ "L 1 1 7 100 0" ] (expect_rejection ~mentions:"line 5");
  with_text_fixture [ "S 1 1 7 100 -3" ] (expect_rejection ~mentions:"line 5");
  with_text_fixture [ "M 1 SNK net 100 0" ]
    (expect_rejection ~mentions:"line 5")

let test_trace_io_corrupt_binary () =
  let app = Option.get (Pift_workloads.Droidbench.find "StringConcat1") in
  let recorded = Recorded.record app in
  let path = Filename.temp_file "pift" ".btrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary recorded path;
      let whole =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      (* truncated mid-record (3 bytes is less than the smallest record,
         so the cut cannot land on a record boundary): the reader names
         the failing record *)
      let rewrite s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      rewrite (String.sub whole 0 (String.length whole - 3));
      expect_rejection ~mentions:"record" path;
      (* a zero-length record appended to a valid stream *)
      rewrite (whole ^ "\x00");
      expect_rejection ~mentions:"empty record" path;
      (* restoring the original bytes loads cleanly again *)
      rewrite whole;
      checki "restored file loads"
        (Trace.length recorded.Recorded.trace)
        (Trace.length (Trace_io.load path).Recorded.trace))

let () =
  Alcotest.run "pift_extensions"
    [
      ( "scrubber",
        [
          Alcotest.test_case "removes dummy blocks" `Quick
            test_scrubber_removes_dummy_block;
          Alcotest.test_case "keeps contributing ops" `Quick
            test_scrubber_keeps_contributing_ops;
          Alcotest.test_case "live-out" `Quick test_scrubber_respects_live_out;
          Alcotest.test_case "bails on branches" `Quick
            test_scrubber_bails_on_branches;
          Alcotest.test_case "flags & addressing" `Quick
            test_scrubber_flags_and_addressing;
          Alcotest.test_case "store relocation" `Quick test_relocate_stores;
          Alcotest.test_case "relocation dependencies" `Quick
            test_relocate_respects_dependencies;
          QCheck_alcotest.to_alcotest prop_scrub_preserves_semantics;
        ] );
      ( "evasion",
        [
          Alcotest.test_case "attack & countermeasure" `Quick
            test_evasion_pair;
          Alcotest.test_case "live dummy & relocation" `Quick
            test_evasion_live_variant;
        ] );
      ( "jit",
        [
          Alcotest.test_case "optimizer" `Quick
            test_jit_optimize_removes_overhead;
          Alcotest.test_case "semantics" `Quick test_jit_semantics_match;
          Alcotest.test_case "verdicts" `Quick
            test_jit_shorter_traces_same_verdict;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "events exact, both formats" `Quick
            test_trace_io_events_exact;
          Alcotest.test_case "full DIFT refuses a decoded recording" `Quick
            test_dift_refuses_decoded;
          Alcotest.test_case "adversarial marker kinds" `Quick
            test_trace_io_adversarial_kinds;
          Alcotest.test_case "rejects garbage" `Quick
            test_trace_io_rejects_garbage;
          Alcotest.test_case "binary roundtrip" `Quick
            test_trace_io_binary_roundtrip;
          Alcotest.test_case "round-trip property (both formats)" `Quick
            test_trace_io_roundtrip_property;
          Alcotest.test_case "bad kind escapes rejected" `Quick
            test_trace_io_bad_escape;
          Alcotest.test_case "non-positive lengths rejected with line" `Quick
            test_trace_io_zero_length_record;
          Alcotest.test_case "corrupt binary rejected with record" `Quick
            test_trace_io_corrupt_binary;
        ] );
    ]
