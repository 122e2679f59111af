module B = Pift_dalvik.Bytecode
module Method = Pift_dalvik.Method
module Program = Pift_dalvik.Program
module Vm = Pift_dalvik.Vm
module Translate = Pift_dalvik.Translate
module Env = Pift_runtime.Env
module Heap = Pift_runtime.Heap
module Jarray = Pift_runtime.Jarray
module Jstring = Pift_runtime.Jstring
module Tcb = Pift_runtime.Tcb
module Range = Pift_util.Range
module Trace = Pift_trace.Trace
module Memory = Pift_machine.Memory
module Tracker = Pift_core.Tracker
module Policy = Pift_core.Policy

type row = {
  mnemonic : string;
  expected : Translate.distance_spec;
  measured : int option;
}

(* A measurement case: a micro-method whose single interesting bytecode
   moves data from a taintable location to a checkable one. *)
type prepared = {
  args : int list;
  taints : unit -> Range.t list;
  check : unit -> Range.t;
}

type case = {
  bc : B.t;
  registers : int;
  ins : int;
  classes : (string * string list) list;
  prefix : B.t list;  (** bytecodes executed before [bc] *)
  suffix : B.t list;  (** bytecodes executed after [bc] (before return) *)
  prepare : Env.t -> Vm.t -> fp:int -> prepared;
}

let slot fp v = Range.of_len (fp + (4 * v)) 4
let slot_wide fp v = Range.of_len (fp + (4 * v)) 8

let simple ?(registers = 6) ?(ins = 1) ?(classes = []) ?(prefix = [])
    ?(suffix = []) bc prepare =
  { bc; registers; ins; classes; prefix; suffix; prepare }

(* Search the minimal NI (at generous NT) that propagates the taint:
   by Algorithm 1 this is the load→store distance of the data flow. *)
let search_limit = 30

let min_ni trace ~taints ~check =
  let target = check () in
  let propagates ni =
    let tracker = Tracker.create ~policy:(Policy.make ~ni ~nt:10 ()) () in
    List.iter (fun r -> Tracker.taint_source tracker ~pid:1 r) (taints ());
    Trace.iter_rows (Recorded.track tracker trace) trace;
    Tracker.is_tainted tracker ~pid:1 target
  in
  let rec search ni =
    if ni > search_limit then None
    else if propagates ni then Some ni
    else search (ni + 1)
  in
  search 1

let measure case =
  let body = case.prefix @ [ case.bc ] @ case.suffix @ [ B.Return_void ] in
  let program =
    Program.make ~classes:case.classes ~entry:"test"
      [
        Method.make ~name:"test" ~registers:case.registers ~ins:case.ins body;
        (* identity helper used by the move-result case *)
        Method.make ~name:"id" ~registers:2 ~ins:1 [ B.Return 1 ];
      ]
  in
  let trace = Trace.create () in
  let env = Env.create ~sink:(Trace.sink trace) () in
  let vm = Vm.create env program in
  let fp = Vm.entry_frame_base vm "test" in
  let prepared = case.prepare env vm ~fp in
  (try ignore (Vm.call vm "test" prepared.args)
   with Vm.Thrown _ -> ());
  {
    mnemonic = B.mnemonic case.bc;
    expected = Translate.expected_distance case.bc;
    measured = min_ni trace ~taints:prepared.taints ~check:prepared.check;
  }

(* --- The cases --------------------------------------------------------- *)

(* One argument (v_last) tainted, one destination vreg checked. *)
let vreg_to_vreg ?registers ?prefix ?suffix bc ~src ~dst =
  simple ?registers ?prefix ?suffix bc (fun _env _vm ~fp ->
      {
        args = [ 0 ];
        taints = (fun () -> [ slot fp src ]);
        check = (fun () -> slot fp dst);
      })

let int_array env =
  let arr = Jarray.alloc env.Env.heap Jarray.Words 4 in
  Jarray.set Jarray.Words env.Env.heap arr 1 42;
  arr

let elem_range kind arr =
  Range.of_len (Jarray.elem_addr kind ~arr ~index:1) (Jarray.elem_size kind)

let aget_case bc kind =
  simple ~prefix:[ B.Const4 (1, 1) ] bc (fun env _vm ~fp ->
      let arr =
        match kind with
        | Jarray.Words -> int_array env
        | k ->
            let a = Jarray.alloc env.Env.heap k 4 in
            Jarray.set k env.Env.heap a 1 42;
            a
      in
      {
        args = [ arr ];
        taints = (fun () -> [ elem_range kind arr ]);
        check = (fun () -> slot fp 0);
      })

let aput_case bc kind =
  simple ~ins:2 ~prefix:[ B.Const4 (0, 1) ] bc (fun env _vm ~fp ->
      let arr = Jarray.alloc env.Env.heap kind 4 in
      let arr_holder = ref arr in
      {
        args = [ arr; 7 ];
        taints = (fun () -> [ slot fp 5 ]);
        check = (fun () -> elem_range kind !arr_holder);
      })

let holder_classes = [ ("T", [ "f"; "g" ]) ]

let cases : case list =
  [
    (* arguments live in the last [ins] registers: with 6 registers and
       ins=1 the argument is v5; with ins=2 they are v4, v5. *)
    vreg_to_vreg (B.Move (0, 5)) ~src:5 ~dst:0;
    vreg_to_vreg (B.Move_from16 (0, 5)) ~src:5 ~dst:0;
    vreg_to_vreg (B.Move_object (0, 5)) ~src:5 ~dst:0;
    vreg_to_vreg (B.Move_object_from16 (0, 5)) ~src:5 ~dst:0;
    simple ~registers:8 ~ins:2 (B.Move_wide (0, 6)) (fun _env _vm ~fp ->
        {
          args = [ 11; 22 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple
      ~prefix:[ B.Invoke (B.Static, "id", [ 5 ]) ]
      (B.Move_result 0)
      (fun _env _vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> slot fp 0);
        });
    simple
      ~prefix:[ B.Invoke (B.Static, "id", [ 5 ]) ]
      (B.Move_result_object 0)
      (fun _env _vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> slot fp 0);
        });
    simple (B.Return 5) (fun env _vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> Tcb.retval_range ~pid:(Env.pid env));
        });
    simple (B.Return_object 5) (fun env _vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> Tcb.retval_range ~pid:(Env.pid env));
        });
    simple ~registers:8 ~ins:2 (B.Return_wide 6) (fun env _vm ~fp ->
        {
          args = [ 11; 22 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check =
            (fun () ->
              Range.of_len
                (Tcb.base ~pid:(Env.pid env) + Tcb.retval_offset)
                8);
        });
    (* throw: the (reference) payload flows to the thread's pending slot *)
    {
      bc = B.Throw 5;
      registers = 6;
      ins = 1;
      classes = [];
      prefix = [];
      suffix = [];
      prepare =
        (fun env _vm ~fp ->
          {
            args = [ 9 ];
            taints = (fun () -> [ slot fp 5 ]);
            check =
              (fun () ->
                Range.of_len
                  (Tcb.base ~pid:(Env.pid env) + Tcb.exception_offset)
                  4);
          });
    };
    aget_case (B.Aget (0, 5, 1)) Jarray.Words;
    aget_case (B.Aget_char (0, 5, 1)) Jarray.Chars;
    aget_case (B.Aget_byte (0, 5, 1)) Jarray.Bytes;
    aget_case (B.Aget_object (0, 5, 1)) Jarray.Words;
    aput_case (B.Aput (5, 4, 0)) Jarray.Words;
    aput_case (B.Aput_char (5, 4, 0)) Jarray.Chars;
    aput_case (B.Aput_byte (5, 4, 0)) Jarray.Bytes;
    (* aput-object: the stored value must be an object (type check) *)
    simple ~ins:2 ~prefix:[ B.Const4 (0, 1) ] (B.Aput_object (5, 4, 0))
      (fun env _vm ~fp ->
        let arr = Jarray.alloc env.Env.heap Jarray.Words 4 in
        let str = Jstring.alloc env.Env.heap "x" in
        {
          args = [ arr; str ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> elem_range Jarray.Words arr);
        });
    simple ~classes:holder_classes (B.Iget (0, 5, "f"))
      (fun env _vm ~fp ->
        let obj = Heap.new_object env.Env.heap ~class_name:"T" ~field_count:2 in
        Memory.write_u32 (Heap.memory env.Env.heap)
          (Heap.field_addr ~obj ~index:0)
          5;
        {
          args = [ obj ];
          taints =
            (fun () -> [ Range.of_len (Heap.field_addr ~obj ~index:0) 4 ]);
          check = (fun () -> slot fp 0);
        });
    simple ~classes:holder_classes (B.Iget_object (0, 5, "f"))
      (fun env _vm ~fp ->
        let obj = Heap.new_object env.Env.heap ~class_name:"T" ~field_count:2 in
        {
          args = [ obj ];
          taints =
            (fun () -> [ Range.of_len (Heap.field_addr ~obj ~index:0) 4 ]);
          check = (fun () -> slot fp 0);
        });
    simple ~classes:holder_classes (B.Iget_wide (0, 5, "f"))
      (fun env _vm ~fp ->
        let obj = Heap.new_object env.Env.heap ~class_name:"T" ~field_count:2 in
        {
          args = [ obj ];
          taints =
            (fun () -> [ Range.of_len (Heap.field_addr ~obj ~index:0) 8 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple ~ins:2 ~classes:holder_classes (B.Iput (5, 4, "f"))
      (fun env _vm ~fp ->
        let obj = Heap.new_object env.Env.heap ~class_name:"T" ~field_count:2 in
        {
          args = [ obj; 7 ];
          taints = (fun () -> [ slot fp 5 ]);
          check =
            (fun () -> Range.of_len (Heap.field_addr ~obj ~index:0) 4);
        });
    simple ~ins:2 ~classes:holder_classes (B.Iput_object (5, 4, "f"))
      (fun env _vm ~fp ->
        let obj = Heap.new_object env.Env.heap ~class_name:"T" ~field_count:2 in
        {
          args = [ obj; 7 ];
          taints = (fun () -> [ slot fp 5 ]);
          check =
            (fun () -> Range.of_len (Heap.field_addr ~obj ~index:0) 4);
        });
    simple ~ins:0 (B.Sget (0, "S.x")) (fun _env vm ~fp ->
        {
          args = [];
          taints = (fun () -> [ Range.of_len (Vm.static_slot vm "S.x") 4 ]);
          check = (fun () -> slot fp 0);
        });
    simple ~ins:0 (B.Sget_object (0, "S.x")) (fun _env vm ~fp ->
        {
          args = [];
          taints = (fun () -> [ Range.of_len (Vm.static_slot vm "S.x") 4 ]);
          check = (fun () -> slot fp 0);
        });
    simple (B.Sput (5, "S.y")) (fun _env vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> Range.of_len (Vm.static_slot vm "S.y") 4);
        });
    simple (B.Sput_object (5, "S.y")) (fun _env vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> Range.of_len (Vm.static_slot vm "S.y") 4);
        });
    simple ~ins:2 (B.Binop (B.Add, 0, 4, 5)) (fun _env _vm ~fp ->
        {
          args = [ 3; 4 ];
          taints = (fun () -> [ slot fp 4 ]);
          check = (fun () -> slot fp 0);
        });
    (* 2addr: taint the in-place operand; the appended move re-exports it,
       so the minimal window is the 2addr store distance (5). *)
    simple ~ins:2 ~suffix:[ B.Move (0, 4) ] (B.Binop_2addr (B.Mul, 4, 5))
      (fun _env _vm ~fp ->
        {
          args = [ 3; 4 ];
          taints = (fun () -> [ slot fp 4 ]);
          check = (fun () -> slot fp 0);
        });
    simple (B.Binop_lit8 (B.Add, 0, 5, 7)) (fun _env _vm ~fp ->
        {
          args = [ 3 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> slot fp 0);
        });
    simple ~ins:2 (B.Binop (B.Div, 0, 4, 5)) (fun _env _vm ~fp ->
        {
          args = [ 100; 7 ];
          taints = (fun () -> [ slot fp 4 ]);
          check = (fun () -> slot fp 0);
        });
    vreg_to_vreg (B.Neg_int (0, 5)) ~src:5 ~dst:0;
    vreg_to_vreg (B.Int_to_char (0, 5)) ~src:5 ~dst:0;
    vreg_to_vreg (B.Int_to_byte (0, 5)) ~src:5 ~dst:0;
    simple (B.Int_to_long (0, 5)) (fun _env _vm ~fp ->
        {
          args = [ 9 ];
          taints = (fun () -> [ slot fp 5 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple ~registers:8 ~ins:2 (B.Long_to_int (0, 6)) (fun _env _vm ~fp ->
        {
          args = [ 11; 22 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot fp 0);
        });
    simple ~registers:10 ~ins:4 (B.Add_long (0, 6, 8)) (fun _env _vm ~fp ->
        {
          args = [ 1; 2; 3; 4 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple ~registers:10 ~ins:4 (B.Sub_long (0, 6, 8)) (fun _env _vm ~fp ->
        {
          args = [ 1; 2; 3; 4 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple ~registers:10 ~ins:4 (B.Mul_long (0, 6, 8)) (fun _env _vm ~fp ->
        {
          args = [ 1; 2; 3; 4 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple ~registers:10 ~ins:3 (B.Shr_long (0, 6, 8)) (fun _env _vm ~fp ->
        {
          args = [ 1; 2; 3 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot_wide fp 0);
        });
    simple ~registers:10 ~ins:4 (B.Cmp_long (0, 6, 8)) (fun _env _vm ~fp ->
        {
          args = [ 1; 2; 3; 4 ];
          taints = (fun () -> [ slot_wide fp 6 ]);
          check = (fun () -> slot fp 0);
        });
    (* array-length moves the header word, so taint the header *)
    simple (B.Array_length (0, 5)) (fun env _vm ~fp ->
        let arr = Jarray.alloc env.Env.heap Jarray.Words 4 in
        {
          args = [ arr ];
          taints = (fun () -> [ Range.of_len (arr + 4) 4 ]);
          check = (fun () -> slot fp 0);
        });
  ]

let measure_all () = List.map measure cases

let consistent row =
  match (row.expected, row.measured) with
  | Translate.Fixed d, Some m -> m = d
  | Translate.Approx (lo, hi), Some m -> lo <= m && m <= hi
  | Translate.Unknown, None -> true
  | Translate.Unknown, Some m -> m > 13
  | Translate.No_flow, None -> true
  | Translate.Fixed _, None | Translate.Approx _, None
  | Translate.No_flow, Some _ ->
      false

let pp_spec ppf = function
  | Translate.Fixed d -> Format.fprintf ppf "%d" d
  | Translate.Approx (lo, hi) -> Format.fprintf ppf "%d-%d" lo hi
  | Translate.Unknown -> Format.pp_print_string ppf "unknown"
  | Translate.No_flow -> Format.pp_print_string ppf "-"

let render rows ppf () =
  Format.fprintf ppf
    "@[<v>== Table 1 — native load & store distances within Dalvik \
     bytecodes ==@,";
  Format.fprintf ppf "%-22s %10s %10s %6s@," "bytecode" "expected" "measured"
    "ok";
  let sorted =
    List.sort
      (fun a b ->
        compare
          (Option.value ~default:max_int a.measured)
          (Option.value ~default:max_int b.measured))
      rows
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %10s %10s %6s@," r.mnemonic
        (Format.asprintf "%a" pp_spec r.expected)
        (match r.measured with
        | Some m -> string_of_int m
        | None -> "unknown")
        (if consistent r then "yes" else "NO"))
    sorted;
  (* Grouped summary in the shape of the paper's table *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key =
        match r.measured with
        | Some d when d <= 8 -> string_of_int d
        | Some _ -> "9-12"
        | None -> "unknown"
      in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (r.mnemonic :: cur))
    rows;
  Format.fprintf ppf "@,%-10s %5s  %s@," "distance" "count" "example bytecodes";
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
  in
  List.iter
    (fun key ->
      let mnemonics = Hashtbl.find groups key in
      Format.fprintf ppf "%-10s %5d  %s@," key (List.length mnemonics)
        (String.concat ", "
           (List.filteri (fun i _ -> i < 4) (List.rev mnemonics))))
    keys;
  Format.fprintf ppf "@]@."
