(* Tests for the workload-assembly DSL: label resolution, gaps, loops,
   and the common invocation snippets. *)

module B = Pift_dalvik.Bytecode
module Method = Pift_dalvik.Method
module Vm = Pift_dalvik.Vm
module Env = Pift_runtime.Env
open Pift_workloads.Dsl

let checki = Alcotest.(check int)

let test_body_labels () =
  let code =
    body
      [
        I (B.Const4 (0, 0));
        L "head";
        If_l (B.Ge, 0, 1, "out");
        I (B.Binop_lit8 (B.Add, 0, 0, 1));
        Goto_l "head";
        L "out";
        I (B.Return 0);
      ]
  in
  checki "length" 5 (List.length code);
  (match List.nth code 1 with
  | B.If_test (B.Ge, 0, 1, 4) -> ()
  | _ -> Alcotest.fail "if target wrong");
  (match List.nth code 3 with
  | B.Goto 1 -> ()
  | _ -> Alcotest.fail "goto target wrong");
  (* labels can be forward or backward; unbound ones fail *)
  (try
     ignore (body [ Goto_l "nowhere"; I B.Return_void ]);
     Alcotest.fail "unbound label accepted"
   with Failure _ -> ());
  try
    ignore (body [ L "x"; L "x"; I B.Return_void ]);
    Alcotest.fail "duplicate label accepted"
  with Failure _ -> ()

let test_body_is_blocks () =
  let code =
    body [ Is [ B.Const4 (0, 1); B.Const4 (1, 2) ]; L "l"; Goto_l "l" ]
  in
  checki "expanded" 3 (List.length code);
  match List.nth code 2 with
  | B.Goto 2 -> ()
  | _ -> Alcotest.fail "label after Is block wrong"

let run_body code =
  let env = Env.create ~sink:(fun _ _ -> ()) () in
  let vm =
    Vm.create env
      (Pift_dalvik.Program.make ~entry:"main"
         [ Method.make ~name:"main" ~registers:8 ~ins:0 code ])
  in
  Vm.call vm "main" []

let test_clean_loop_runs () =
  let code =
    body
      (clean_loop ~counter:0 ~bound:1 ~iterations:25 @ [ I (B.Return 0) ])
  in
  checki "counter reached bound" 25 (run_body code)

let test_window_gap_runs () =
  let code =
    body ([ I (B.Const4 (0, 7)) ] @ window_gap 5 @ [ I (B.Return 0) ])
  in
  checki "falls through the gap" 7 (run_body code);
  (* a gap of n gotos contributes n bytecodes *)
  checki "gap size" 7 (List.length code)

let test_snippets () =
  (* the sugar produces invoke + move-result pairs *)
  (match imei 3 with
  | [ B.Invoke (B.Static, "TelephonyManager.getDeviceId", []);
      B.Move_result_object 3 ] ->
      ()
  | _ -> Alcotest.fail "imei snippet shape");
  (match concat ~dst:2 0 1 with
  | [ B.Invoke (B.Static, "String.concat", [ 0; 1 ]);
      B.Move_result_object 2 ] ->
      ()
  | _ -> Alcotest.fail "concat snippet shape");
  match send_sms ~dest:4 ~msg:5 with
  | B.Invoke (B.Static, "SmsManager.sendTextMessage", [ 4; 5 ]) -> ()
  | _ -> Alcotest.fail "sms snippet shape"

let () =
  Alcotest.run "pift_dsl"
    [
      ( "body",
        [
          Alcotest.test_case "labels" `Quick test_body_labels;
          Alcotest.test_case "instruction blocks" `Quick test_body_is_blocks;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "clean loop" `Quick test_clean_loop_runs;
          Alcotest.test_case "window gap" `Quick test_window_gap_runs;
          Alcotest.test_case "snippets" `Quick test_snippets;
        ] );
    ]
