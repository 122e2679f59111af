module Cpu = Pift_machine.Cpu
module Memory = Pift_machine.Memory
module Layout = Pift_machine.Layout
module Asm = Pift_arm.Asm
module Insn = Pift_arm.Insn
module Reg = Pift_arm.Reg
module Env = Pift_runtime.Env
module Heap = Pift_runtime.Heap
module Jstring = Pift_runtime.Jstring
module Jarray = Pift_runtime.Jarray
module B = Bytecode

exception Thrown of int

type mode = Interpreter | Jit

type t = {
  mode : mode;
  env : Env.t;
  program : Program.t;
  natives : (string, Env.native) Hashtbl.t;
  statics : (string, int) Hashtbl.t;
  mutable static_next : int;
  literals : (string, int) Hashtbl.t;
  mutable code_next : int;
  frag_cache : (string * int * int, Asm.fragment) Hashtbl.t;
  mutable frag_hits : int;
  mutable bytecodes : int;
  flight : Pift_obs.Flight.t option;
}

let code_base = 0x1000_0000
let entry_fp = 0x70f0_0000
let statics_base = Layout.scratch_base + 0x10000

let create ?(mode = Interpreter) ?(natives = Pift_runtime.Api.registry)
    ?flight env program =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (name, fn) -> Hashtbl.replace tbl name fn) natives;
  Cpu.set env.Env.cpu Reg.SP Layout.stack_base;
  {
    mode;
    env;
    program;
    natives = tbl;
    statics = Hashtbl.create 8;
    static_next = statics_base;
    literals = Hashtbl.create 8;
    code_next = code_base;
    frag_cache = Hashtbl.create 64;
    frag_hits = 0;
    bytecodes = 0;
    flight;
  }

let env t = t.env
let bytecodes_executed t = t.bytecodes
let frag_cache_hits t = t.frag_hits

(* Every miss translates and caches one fragment, and nothing is ever
   evicted, so the cache's size is the miss count. *)
let frag_cache_misses t = Hashtbl.length t.frag_cache
let mem t = Cpu.memory t.env.Env.cpu

let read_vreg t ~fp v = Memory.read_u32 (mem t) (fp + (4 * v))
let write_vreg t ~fp v value = Memory.write_u32 (mem t) (fp + (4 * v)) value

(* Lay the method's opcodes out in code memory so fetch loads read real
   bytes.  One bytecode occupies one 4-byte code unit. *)
let load_method t (m : Method.t) =
  if m.Method.code_addr = 0 then begin
    m.Method.code_addr <- t.code_next;
    t.code_next <- t.code_next + (4 * (Array.length m.Method.code + 1));
    Array.iteri
      (fun i bc ->
        Memory.write_u16 (mem t)
          (m.Method.code_addr + (4 * i))
          (Bytecode.opcode bc))
      m.Method.code
  end

let static_addr t name =
  match Hashtbl.find_opt t.statics name with
  | Some a -> a
  | None ->
      let a = t.static_next in
      t.static_next <- a + 4;
      Hashtbl.add t.statics name a;
      a

let literal t s =
  match Hashtbl.find_opt t.literals s with
  | Some r -> r
  | None ->
      let r = Jstring.alloc t.env.Env.heap s in
      Hashtbl.add t.literals s r;
      r

let cached_fragment t (m : Method.t) ~pc ~key resolved =
  let cache_key = (m.Method.name, pc, key) in
  match Hashtbl.find_opt t.frag_cache cache_key with
  | Some f ->
      t.frag_hits <- t.frag_hits + 1;
      f
  | None ->
      let f = Translate.fragment resolved in
      let f =
        match t.mode with
        | Interpreter -> f
        | Jit -> Translate.jit_optimize f
      in
      Hashtbl.add t.frag_cache cache_key f;
      f

let run_frag t frag = Cpu.run t.env.Env.cpu frag

(* Field resolution through the receiver's runtime class (quickening). *)
let field_offset t ~fp obj_vreg field =
  let obj = read_vreg t ~fp obj_vreg in
  let cls_id = Memory.read_u32 (mem t) obj in
  match Heap.class_name_of_id cls_id with
  | None ->
      failwith
        (Printf.sprintf "Vm: object 0x%x has unknown class id %d" obj cls_id)
  | Some class_name ->
      4 + (4 * Program.field_index t.program ~class_name ~field)

let test_holds test a b =
  let s v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
  match test with
  | B.Eq -> a = b
  | B.Ne -> a <> b
  | B.Lt -> s a < s b
  | B.Ge -> s a >= s b
  | B.Gt -> s a > s b
  | B.Le -> s a <= s b

let array_kind_of_class cls =
  if String.equal cls "char[]" then Jarray.Chars
  else if String.equal cls "byte[]" then Jarray.Bytes
  else Jarray.Words

(* Assembled eagerly: a toplevel [lazy] forced from two domains at once
   can raise [CamlinternalLazy.Undefined], and VMs run on worker domains
   during parallel sweeps.  The fragment is three instructions — paying
   for it at module init is free. *)
let restore_frag =
  let a = Asm.create () in
  Asm.emit a (Insn.Ldm (Reg.SP, [ Reg.rpc; Reg.rfp; Reg.rinst ]));
  Asm.ret a;
  Asm.assemble a

let max_call_depth = 512

let rec exec_method t (m : Method.t) ~fp ~depth =
  if depth > max_call_depth then failwith "Vm: call depth exceeded";
  load_method t m;
  let cpu = t.env.Env.cpu in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let cur = !pc in
    if cur < 0 || cur >= Array.length m.Method.code then
      failwith (Printf.sprintf "Vm(%s): pc %d out of range" m.Method.name cur);
    (* The interpreter's state for this bytecode.  rSELF and rIBASE are
       callee-saved across native calls on real hardware; intrinsics here
       clobber them freely, so model the restore by re-seeding. *)
    Cpu.set cpu Reg.rpc (m.Method.code_addr + (4 * cur));
    Cpu.set cpu Reg.rfp fp;
    Cpu.set cpu Reg.R6 (Pift_runtime.Tcb.base ~pid:(Cpu.pid cpu));
    Cpu.set cpu Reg.ribase 0x2000_0000;
    t.bytecodes <- t.bytecodes + 1;
    let bc = m.Method.code.(cur) in
    try
      match bc with
      | B.Goto l ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          pc := l
      | B.If_test (test, va, vb, l) ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          let a = read_vreg t ~fp va and b = read_vreg t ~fp vb in
          pc := (if test_holds test a b then l else cur + 1)
      | B.If_testz (test, va, l) ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          let a = read_vreg t ~fp va in
          pc := (if test_holds test a 0 then l else cur + 1)
      | B.Packed_switch (va, table, default) ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          let v = read_vreg t ~fp va in
          pc := (match List.assoc_opt v table with Some l -> l | None -> default)
      | B.Return_void | B.Return _ | B.Return_wide _ | B.Return_object _ ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          running := false
      | B.Throw v ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          raise (Thrown (read_vreg t ~fp v))
      | B.Invoke (_, name, args) | B.Invoke_range (_, name, args) ->
          invoke t m ~fp ~pc:cur ~depth name args;
          pc := cur + 1
      | B.New_instance (dst, cls) ->
          let field_count = Program.field_count t.program ~class_name:cls in
          let obj = Heap.new_object t.env.Env.heap ~class_name:cls ~field_count in
          Cpu.set cpu Reg.R0 obj;
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.New_ref dst));
          pc := cur + 1
      | B.New_array (dst, len_v, cls) ->
          let len = read_vreg t ~fp len_v in
          let arr = Jarray.alloc t.env.Env.heap (array_kind_of_class cls) len in
          Cpu.set cpu Reg.R0 arr;
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.New_ref dst));
          pc := cur + 1
      | B.Const_string (dst, s) ->
          Cpu.set cpu Reg.R0 (literal t s);
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.New_ref dst));
          pc := cur + 1
      | B.Instance_of (dst, obj_v, cls) ->
          let obj = read_vreg t ~fp obj_v in
          let is =
            obj <> 0 && Memory.read_u32 (mem t) obj = Heap.class_id cls
          in
          Cpu.set cpu Reg.R0 (if is then 1 else 0);
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.New_ref dst));
          pc := cur + 1
      | B.Iget (_, obj, f) | B.Iget_object (_, obj, f) | B.Iget_wide (_, obj, f)
      | B.Iput (_, obj, f) | B.Iput_object (_, obj, f) ->
          let off = field_offset t ~fp obj f in
          run_frag t
            (cached_fragment t m ~pc:cur ~key:off (Translate.Field (bc, off)));
          pc := cur + 1
      | B.Sget (_, f) | B.Sget_object (_, f) | B.Sput (_, f)
      | B.Sput_object (_, f) ->
          let addr = static_addr t f in
          run_frag t
            (cached_fragment t m ~pc:cur ~key:addr (Translate.Static (bc, addr)));
          pc := cur + 1
      | B.Nop | B.Move _ | B.Move_from16 _ | B.Move_wide _ | B.Move_object _
      | B.Move_object_from16 _ | B.Monitor_enter _ | B.Monitor_exit _
      | B.Move_result _ | B.Move_result_object _ | B.Move_exception _
      | B.Const4 _ | B.Const16 _ | B.Const _ | B.Array_length _ | B.Aget _
      | B.Aget_char _ | B.Aget_byte _ | B.Aget_object _ | B.Aput _
      | B.Aput_char _ | B.Aput_byte _ | B.Aput_object _ | B.Binop _
      | B.Binop_2addr _ | B.Binop_lit8 _ | B.Neg_int _ | B.Int_to_char _
      | B.Int_to_byte _ | B.Int_to_long _ | B.Long_to_int _ | B.Add_long _
      | B.Sub_long _ | B.Mul_long _ | B.Shr_long _ | B.Cmp_long _
      | B.Check_cast _ ->
          run_frag t (cached_fragment t m ~pc:cur ~key:0 (Translate.Plain bc));
          pc := cur + 1
    with Thrown _ as e -> (
      match Method.handler_for m ~pc:cur with
      | Some target -> pc := target
      | None -> raise e)
  done

and invoke t (m : Method.t) ~fp ~pc ~depth name args =
  match Hashtbl.find_opt t.natives name with
  | Some native ->
      run_frag t
        (cached_fragment t m ~pc ~key:0 (Translate.Invoke_native args));
      let values = Array.of_list (List.map (read_vreg t ~fp) args) in
      let addrs = Array.of_list (List.map (fun v -> fp + (4 * v)) args) in
      native t.env ~args:values ~arg_addrs:addrs
  | None -> (
      match Program.find_method t.program name with
      | None -> failwith ("Vm: unknown method " ^ name)
      | Some callee ->
          if List.length args <> callee.Method.ins then
            failwith
              (Printf.sprintf "Vm: %s expects %d args, got %d" name
                 callee.Method.ins (List.length args));
          let callee_fp = fp - Method.frame_bytes callee in
          if callee_fp < Layout.frame_base then failwith "Vm: frame overflow";
          let arg_moves =
            List.mapi
              (fun i src ->
                (src, callee.Method.registers - callee.Method.ins + i))
              args
          in
          run_frag t
            (cached_fragment t m ~pc ~key:0
               (Translate.Invoke_bytecode
                  { arg_moves; callee_registers = callee.Method.registers }));
          let restore () =
            run_frag t restore_frag;
            Cpu.set t.env.Env.cpu Reg.rfp fp
          in
          (try exec_method t callee ~fp:callee_fp ~depth:(depth + 1)
           with e ->
             restore ();
             raise e);
          restore ())

let call t name args =
  match Program.find_method t.program name with
  | None -> failwith ("Vm.call: unknown method " ^ name)
  | Some m ->
      if List.length args <> m.Method.ins then
        failwith "Vm.call: wrong argument count";
      let fp = entry_fp - Method.frame_bytes m in
      List.iteri
        (fun i v -> write_vreg t ~fp (Method.arg_reg m i) v)
        args;
      exec_method t m ~fp ~depth:0;
      Memory.read_u32 (mem t) (Env.retval_addr t.env)

let entry_frame_base t name =
  match Program.find_method t.program name with
  | None -> failwith ("Vm.entry_frame_base: unknown method " ^ name)
  | Some m -> entry_fp - Method.frame_bytes m

let static_slot = static_addr

let run t =
  (match t.flight with
  | None -> ()
  | Some f -> Pift_obs.Flight.begin_ f "vm-run");
  let result =
    match call t (Program.entry t.program) [] with
    | (_ : int) -> `Ok
    | exception Thrown obj ->
        (match t.flight with
        | None -> ()
        | Some f -> Pift_obs.Flight.instant f "vm-uncaught");
        `Uncaught obj
  in
  (match t.flight with
  | None -> ()
  | Some f -> Pift_obs.Flight.end_ f "vm-run");
  result
