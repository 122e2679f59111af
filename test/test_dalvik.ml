(* Tests for the Dalvik-style VM: method/program validation, translation
   distances (against the Table 1 measurement harness), interpreter
   semantics (arithmetic, control flow, calls, exceptions, fields,
   arrays), and static bytecode statistics. *)

module B = Pift_dalvik.Bytecode
module Method = Pift_dalvik.Method
module Program = Pift_dalvik.Program
module Translate = Pift_dalvik.Translate
module Vm = Pift_dalvik.Vm
module Dex_stats = Pift_dalvik.Dex_stats
module Env = Pift_runtime.Env
module Trace = Pift_trace.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Method / Program validation ---------------------------------------- *)

let test_method_validation () =
  (try
     ignore (Method.make ~name:"m" ~registers:2 ~ins:0 []);
     Alcotest.fail "empty body accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Method.make ~name:"m" ~registers:2 ~ins:3 [ B.Return_void ]);
     Alcotest.fail "ins > registers accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Method.make ~name:"m" ~registers:2 ~ins:0 [ B.Goto 5; B.Return_void ]);
     Alcotest.fail "bad branch target accepted"
   with Invalid_argument _ -> ());
  let m =
    Method.make ~name:"m" ~registers:4 ~ins:2
      ~handlers:[ { Method.try_start = 0; try_end = 1; target = 1 } ]
      [ B.Nop; B.Return_void ]
  in
  checki "arg reg 0" 2 (Method.arg_reg m 0);
  checki "arg reg 1" 3 (Method.arg_reg m 1);
  checki "frame bytes" 16 (Method.frame_bytes m);
  checkb "handler covers" true (Method.handler_for m ~pc:0 = Some 1);
  checkb "handler misses" true (Method.handler_for m ~pc:1 = None)

let test_program_validation () =
  let m name = Method.make ~name ~registers:2 ~ins:0 [ B.Return_void ] in
  (try
     ignore (Program.make ~entry:"a" [ m "a"; m "a" ]);
     Alcotest.fail "duplicate methods accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Program.make ~entry:"missing" [ m "a" ]);
     Alcotest.fail "missing entry accepted"
   with Invalid_argument _ -> ());
  let p =
    Program.make ~classes:[ ("C", [ "x"; "y" ]) ] ~entry:"a" [ m "a" ]
  in
  checki "field index" 1 (Program.field_index p ~class_name:"C" ~field:"y");
  checki "field count" 2 (Program.field_count p ~class_name:"C");
  checki "unknown class count" 0 (Program.field_count p ~class_name:"Z")

let test_bytecode_meta () =
  checks "2addr mnemonic" "mul-int/2addr"
    (B.mnemonic (B.Binop_2addr (B.Mul, 0, 1)));
  checks "iget-object" "iget-object" (B.mnemonic (B.Iget_object (0, 1, "f")));
  checks "if-eqz" "if-eqz" (B.mnemonic (B.If_testz (B.Eq, 0, 0)));
  checks "invoke range" "invoke-virtual/range"
    (B.mnemonic (B.Invoke_range (B.Virtual, "m", [])));
  checkb "move moves data" true (B.moves_data (B.Move (0, 1)));
  checkb "const doesn't" false (B.moves_data (B.Const4 (0, 1)));
  checkb "invoke doesn't" false (B.moves_data (B.Invoke (B.Static, "m", [])))

(* --- Translation distances (the Table 1 property) ------------------------- *)

let test_translation_distances () =
  let rows = Pift_eval.Table1.measure_all () in
  checkb "enough cases measured" true (List.length rows >= 40);
  List.iter
    (fun (row : Pift_eval.Table1.row) ->
      checkb
        (Printf.sprintf "%s measured %s matches expectation"
           row.Pift_eval.Table1.mnemonic
           (match row.measured with
           | Some d -> string_of_int d
           | None -> "unknown"))
        true
        (Pift_eval.Table1.consistent row))
    rows

let test_translation_errors () =
  (try
     ignore (Translate.fragment (Translate.Plain (B.Iget (0, 1, "f"))));
     Alcotest.fail "field op as Plain accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Translate.fragment (Translate.Plain (B.Sget (0, "s"))));
     Alcotest.fail "static op as Plain accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Translate.fragment (Translate.Plain (B.Invoke (B.Static, "m", []))));
     Alcotest.fail "invoke as Plain accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Translate.fragment (Translate.Static (B.Move (0, 1), 0)));
    Alcotest.fail "non-static as Static accepted"
  with Invalid_argument _ -> ()

(* --- VM execution --------------------------------------------------------- *)

let fresh_vm ?classes program_methods =
  let env = Env.create ~sink:(fun _ _ -> ()) () in
  let program = Program.make ?classes ~entry:"main" program_methods in
  (env, Vm.create env program)

let run_main ?classes methods = snd (fresh_vm ?classes methods) |> Vm.run

let call ?classes methods name args =
  let _, vm = fresh_vm ?classes methods in
  Vm.call vm name args

let meth = Method.make

let test_vm_arithmetic () =
  let body op a b =
    [
      B.Const16 (0, a);
      B.Const16 (1, b);
      B.Binop (op, 2, 0, 1);
      B.Return 2;
    ]
  in
  let result op a b =
    call [ meth ~name:"main" ~registers:4 ~ins:0 (body op a b) ] "main" []
  in
  checki "add" 30 (result B.Add 17 13);
  checki "sub" 4 (result B.Sub 17 13);
  checki "mul" 221 (result B.Mul 17 13);
  checki "div" 6 (result B.Div 85 13);
  checki "rem" 7 (result B.Rem 85 13);
  checki "and" 0b1000 (result B.And 0b1100 0b1010);
  checki "or" 0b1110 (result B.Or 0b1100 0b1010);
  checki "xor" 0b0110 (result B.Xor 0b1100 0b1010);
  checki "shl" 136 (result B.Shl 17 3);
  checki "shr" 2 (result B.Shr 17 3)

let test_vm_2addr_lit8 () =
  let r =
    call
      [
        meth ~name:"main" ~registers:4 ~ins:0
          [
            B.Const16 (0, 100);
            B.Const16 (1, 3);
            B.Binop_2addr (B.Sub, 0, 1);
            B.Binop_lit8 (B.Add, 0, 0, 5);
            B.Binop_lit8 (B.Div, 0, 0, 2);
            B.Return 0;
          ];
      ]
      "main" []
  in
  checki "((100-3)+5)/2" 51 r

let test_vm_conversions () =
  let r =
    call
      [
        meth ~name:"main" ~registers:6 ~ins:0
          [
            B.Const (0, 0x12345);
            B.Int_to_char (1, 0);
            B.Int_to_byte (2, 0);
            B.Binop (B.Add, 3, 1, 2);
            B.Return 3;
          ];
      ]
      "main" []
  in
  checki "int-to-char + int-to-byte" (0x2345 + 0x45) r

let test_vm_long_ops () =
  let r =
    call
      [
        meth ~name:"main" ~registers:10 ~ins:0
          [
            B.Const16 (0, 1000);
            B.Int_to_long (2, 0) (* v2,v3 = 1000L *);
            B.Const16 (1, 234);
            B.Int_to_long (4, 1);
            B.Add_long (6, 2, 4);
            B.Long_to_int (8, 6);
            B.Return 8;
          ];
      ]
      "main" []
  in
  checki "1000L + 234L" 1234 r

let test_vm_control_flow () =
  (* sum of 1..10 via a loop *)
  let r =
    call
      [
        meth ~name:"main" ~registers:4 ~ins:0
          [
            (* 0 *) B.Const4 (0, 0);
            (* 1 *) B.Const4 (1, 1);
            (* 2 *) B.Const16 (2, 10);
            (* 3 *) B.If_test (B.Gt, 1, 2, 7);
            (* 4 *) B.Binop_2addr (B.Add, 0, 1);
            (* 5 *) B.Binop_lit8 (B.Add, 1, 1, 1);
            (* 6 *) B.Goto 3;
            (* 7 *) B.Return 0;
          ];
      ]
      "main" []
  in
  checki "loop sum" 55 r

let test_vm_switch () =
  let prog_for () =
    [
      meth ~name:"main" ~registers:4 ~ins:1
        [
          (* 0 *) B.Packed_switch (3, [ (1, 3); (2, 5) ], 7);
          (* 1 *) B.Const16 (0, 99);
          (* 2 *) B.Return 0;
          (* 3 *) B.Const16 (0, 10);
          (* 4 *) B.Return 0;
          (* 5 *) B.Const16 (0, 20);
          (* 6 *) B.Return 0;
          (* 7 *) B.Const16 (0, 30);
          (* 8 *) B.Return 0;
        ];
    ]
  in
  checki "case 1" 10 (call (prog_for ()) "main" [ 1 ]);
  checki "case 2" 20 (call (prog_for ()) "main" [ 2 ]);
  checki "default" 30 (call (prog_for ()) "main" [ 9 ])

let test_vm_calls () =
  (* recursive factorial through real frames *)
  let fact =
    meth ~name:"fact" ~registers:5 ~ins:1
      [
        (* 0 *) B.Const4 (0, 1);
        (* 1 *) B.If_test (B.Gt, 4, 0, 3);
        (* 2 *) B.Return 4;
        (* 3 *) B.Binop_lit8 (B.Sub, 1, 4, 1);
        (* 4 *) B.Invoke (B.Static, "fact", [ 1 ]);
        (* 5 *) B.Move_result 2;
        (* 6 *) B.Binop (B.Mul, 3, 2, 4);
        (* 7 *) B.Return 3;
      ]
  in
  let main =
    meth ~name:"main" ~registers:3 ~ins:0
      [
        B.Const4 (0, 6);
        B.Invoke (B.Static, "fact", [ 0 ]);
        B.Move_result 1;
        B.Return 1;
      ]
  in
  checki "6!" 720 (call [ main; fact ] "main" [])

let test_vm_exceptions () =
  let thrower =
    meth ~name:"thrower" ~registers:2 ~ins:0
      [ B.New_instance (0, "Err"); B.Throw 0; B.Return_void ]
  in
  let main =
    meth ~name:"main" ~registers:4 ~ins:0
      ~handlers:[ { Method.try_start = 1; try_end = 2; target = 3 } ]
      [
        (* 0 *) B.Const16 (0, 1);
        (* 1 *) B.Invoke (B.Static, "thrower", []);
        (* 2 *) B.Return 0;
        (* 3 *) B.Move_exception 1;
        (* 4 *) B.Const16 (0, 42);
        (* 5 *) B.Return 0;
      ]
  in
  checki "caught across frames" 42
    (call ~classes:[ ("Err", []) ] [ main; thrower ] "main" []);
  (* uncaught propagates to run as `Uncaught *)
  let main2 =
    meth ~name:"main" ~registers:2 ~ins:0
      [ B.New_instance (0, "Err"); B.Throw 0; B.Return_void ]
  in
  match run_main ~classes:[ ("Err", []) ] [ main2 ] with
  | `Uncaught _ -> ()
  | `Ok -> Alcotest.fail "expected uncaught exception"

let test_vm_fields_statics () =
  let classes = [ ("Point", [ "x"; "y" ]) ] in
  let r =
    call ~classes
      [
        meth ~name:"main" ~registers:6 ~ins:0
          [
            B.New_instance (0, "Point");
            B.Const16 (1, 11);
            B.Iput (1, 0, "x");
            B.Const16 (1, 31);
            B.Iput (1, 0, "y");
            B.Iget (2, 0, "x");
            B.Iget (3, 0, "y");
            B.Binop (B.Add, 4, 2, 3);
            B.Sput (4, "G.sum");
            B.Sget (5, "G.sum");
            B.Return 5;
          ];
      ]
      "main" []
  in
  checki "fields + statics" 42 r

let test_vm_arrays () =
  let r =
    call
      [
        meth ~name:"main" ~registers:8 ~ins:0
          [
            B.Const4 (0, 4);
            B.New_array (1, 0, "int[]");
            B.Array_length (2, 1);
            B.Const4 (3, 2);
            B.Const16 (4, 1000);
            B.Aput (4, 1, 3);
            B.Aget (5, 1, 3);
            B.Binop (B.Add, 6, 5, 2);
            B.Return 6;
          ];
      ]
      "main" []
  in
  checki "array elem + length" 1004 r

let test_vm_strings_interning () =
  let trace = Trace.create () in
  let env = Env.create ~sink:(Trace.sink trace) () in
  let program =
    Program.make ~entry:"main"
      [
        meth ~name:"main" ~registers:4 ~ins:0
          [
            B.Const_string (0, "hello");
            B.Const_string (1, "hello");
            B.Const_string (2, "world");
            (* equal literals intern to the same reference *)
            B.Binop (B.Sub, 3, 0, 1);
            B.Return 3;
          ];
      ]
  in
  let vm = Vm.create env program in
  checki "interned" 0 (Vm.call vm "main" []);
  checkb "trace non-empty" true (Trace.length trace > 0)

let test_vm_events_and_code_memory () =
  (* every bytecode's translation emits a fetch load from code memory *)
  let trace = Trace.create () in
  let env = Env.create ~sink:(Trace.sink trace) () in
  let program =
    Program.make ~entry:"main"
      [
        meth ~name:"main" ~registers:2 ~ins:0
          [ B.Const4 (0, 1); B.Move (1, 0); B.Return 1 ];
      ]
  in
  let vm = Vm.create env program in
  checki "retval" 1 (Vm.call vm "main" []);
  let code_loads = ref 0 in
  Trace.iter
    (fun e ->
      match e.Pift_trace.Event.access with
      | Pift_trace.Event.Load r when Pift_util.Range.lo r >= 0x1000_0000
                                     && Pift_util.Range.lo r < 0x2000_0000 ->
          incr code_loads
      | _ -> ())
    trace;
  checkb "fetch loads from code memory" true (!code_loads >= 2)

let test_vm_errors () =
  (try
     ignore (call [ meth ~name:"main" ~registers:2 ~ins:0 [ B.Invoke (B.Static, "nope", []); B.Return_void ] ] "main" []);
     Alcotest.fail "unknown method accepted"
   with Failure _ -> ());
  try
    ignore (call [ meth ~name:"main" ~registers:2 ~ins:1 [ B.Return_void ] ] "main" []);
    Alcotest.fail "wrong arity accepted"
  with Failure _ -> ()

(* --- Differential fuzzing: interpreter vs JIT vs a pure OCaml evaluator --- *)

let mask32 v = v land 0xFFFF_FFFF

(* Reference semantics of the straight-line arithmetic subset. *)
let emulate code =
  let vregs = Array.make 8 0 in
  let signed v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
  let binop op a b =
    match op with
    | B.Add -> a + b
    | B.Sub -> a - b
    | B.Mul -> a * b
    | B.Div -> if b = 0 then 0 else a / b
    | B.Rem -> if b = 0 then 0 else a mod b
    | B.And -> a land b
    | B.Or -> a lor b
    | B.Xor -> a lxor b
    | B.Shl -> a lsl (b land 31)
    | B.Shr -> signed a asr (b land 31)
  in
  let result = ref 0 in
  List.iter
    (fun bc ->
      match bc with
      | B.Const4 (d, v) | B.Const16 (d, v) | B.Const (d, v) ->
          vregs.(d) <- mask32 v
      | B.Move (d, s) | B.Move_from16 (d, s) -> vregs.(d) <- vregs.(s)
      | B.Binop (op, d, s1, s2) ->
          vregs.(d) <- mask32 (binop op vregs.(s1) vregs.(s2))
      | B.Binop_2addr (op, d, s) ->
          vregs.(d) <- mask32 (binop op vregs.(d) vregs.(s))
      | B.Binop_lit8 (op, d, s, lit) ->
          vregs.(d) <- mask32 (binop op vregs.(s) lit)
      | B.Neg_int (d, s) -> vregs.(d) <- mask32 (-vregs.(s))
      | B.Int_to_char (d, s) -> vregs.(d) <- vregs.(s) land 0xFFFF
      | B.Int_to_byte (d, s) -> vregs.(d) <- vregs.(s) land 0xFF
      | B.Return s -> result := vregs.(s)
      | _ -> failwith "emulate: unsupported bytecode")
    code;
  !result

let fuzz_bytecode_gen =
  QCheck2.Gen.(
    let v = int_range 0 5 in
    let arith_op = oneofl [ B.Add; B.Sub; B.Mul; B.And; B.Or; B.Xor ] in
    let shift_op = oneofl [ B.Shl; B.Shr ] in
    let div_op = oneofl [ B.Div; B.Rem ] in
    let bc =
      oneof
        [
          (let* d = v and* value = int_range 0 0x7FFF in
           return (B.Const16 (d, value)));
          (let* d = v and* s = v in
           return (B.Move (d, s)));
          (let* op = arith_op and* d = v and* s1 = v and* s2 = v in
           return (B.Binop (op, d, s1, s2)));
          (let* op = arith_op and* d = v and* s = v in
           return (B.Binop_2addr (op, d, s)));
          (let* op = arith_op and* d = v and* s = v
           and* lit = int_range 0 100 in
           return (B.Binop_lit8 (op, d, s, lit)));
          (let* op = shift_op and* d = v and* s = v
           and* lit = int_range 0 8 in
           return (B.Binop_lit8 (op, d, s, lit)));
          (* division by a non-zero literal: exercises the ABI helper *)
          (let* op = div_op and* d = v and* s = v
           and* lit = int_range 1 100 in
           return (B.Binop_lit8 (op, d, s, lit)));
          (let* d = v and* s = v in
           return (B.Neg_int (d, s)));
          (let* d = v and* s = v in
           return (B.Int_to_char (d, s)));
          (let* d = v and* s = v in
           return (B.Int_to_byte (d, s)));
        ]
    in
    let* body = list_size (int_range 1 25) bc in
    let* ret = v in
    return (body @ [ B.Return ret ]))

let prop_vm_differential =
  QCheck2.Test.make ~name:"interpreter = JIT = reference semantics"
    ~count:200 fuzz_bytecode_gen (fun code ->
      let expected = emulate code in
      let run mode =
        let env = Env.create ~sink:(fun _ _ -> ()) () in
        let vm =
          Vm.create ~mode env
            (Program.make ~entry:"main"
               [ meth ~name:"main" ~registers:8 ~ins:0 code ])
        in
        Vm.call vm "main" []
      in
      run Vm.Interpreter = expected && run Vm.Jit = expected)

(* --- Dex_stats ------------------------------------------------------------ *)

let test_dex_stats () =
  let p =
    Program.make ~entry:"main"
      [
        meth ~name:"main" ~registers:4 ~ins:0
          [
            B.Move (0, 1);
            B.Move (1, 2);
            B.Const4 (0, 1);
            B.Return_void;
          ];
      ]
  in
  checki "total" 4 (Dex_stats.total_bytecodes [ p ]);
  let rows = Dex_stats.rows [ p ] in
  let move = List.find (fun r -> r.Dex_stats.mnemonic = "move") rows in
  checki "move count" 2 move.Dex_stats.count;
  Alcotest.(check (float 1e-9)) "move share" 0.5 move.Dex_stats.share;
  checkb "move flagged as data-moving" true move.Dex_stats.moves_data;
  checki "top 2" 2 (List.length (Dex_stats.top 2 [ p ]))

let () =
  Alcotest.run "pift_dalvik"
    [
      ( "structure",
        [
          Alcotest.test_case "method validation" `Quick test_method_validation;
          Alcotest.test_case "program validation" `Quick
            test_program_validation;
          Alcotest.test_case "bytecode metadata" `Quick test_bytecode_meta;
        ] );
      ( "translation",
        [
          Alcotest.test_case "Table 1 distances" `Slow
            test_translation_distances;
          Alcotest.test_case "resolution errors" `Quick
            test_translation_errors;
        ] );
      ( "vm",
        [
          Alcotest.test_case "arithmetic" `Quick test_vm_arithmetic;
          Alcotest.test_case "2addr & lit8" `Quick test_vm_2addr_lit8;
          Alcotest.test_case "conversions" `Quick test_vm_conversions;
          Alcotest.test_case "long ops" `Quick test_vm_long_ops;
          Alcotest.test_case "control flow" `Quick test_vm_control_flow;
          Alcotest.test_case "switch" `Quick test_vm_switch;
          Alcotest.test_case "calls & recursion" `Quick test_vm_calls;
          Alcotest.test_case "exceptions" `Quick test_vm_exceptions;
          Alcotest.test_case "fields & statics" `Quick test_vm_fields_statics;
          Alcotest.test_case "arrays" `Quick test_vm_arrays;
          Alcotest.test_case "string interning" `Quick
            test_vm_strings_interning;
          Alcotest.test_case "events & code memory" `Quick
            test_vm_events_and_code_memory;
          Alcotest.test_case "errors" `Quick test_vm_errors;
        ] );
      ("dex_stats", [ Alcotest.test_case "counting" `Quick test_dex_stats ]);
      ("fuzz", [ QCheck_alcotest.to_alcotest prop_vm_differential ]);
    ]
