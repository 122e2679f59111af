type costs = {
  base_cpi : float;
  primary_lookup : float;
  secondary_lookup : float;
  insert : float;
  sw_dift_per_insn : float;
}

let default_costs =
  {
    base_cpi = 1.0;
    primary_lookup = 0.0;
    secondary_lookup = 30.0;
    insert = 0.0;
    sw_dift_per_insn = 4.0;
  }

type report = {
  total_insns : int;
  memory_insns : int;
  pift_events : int;
  pift_stall_cycles : float;
  pift_overhead_pct : float;
  sw_dift_overhead_pct : float;
  event_reduction : float;
}

let estimate ?(costs = default_costs) ~total_insns ~loads ~stores
    ~secondary_hits () =
  if total_insns <= 0 then invalid_arg "Hw_model.estimate: empty trace";
  let memory_insns = loads + stores in
  let base_cycles = costs.base_cpi *. float_of_int total_insns in
  let stall =
    (costs.primary_lookup *. float_of_int loads)
    +. (costs.secondary_lookup *. float_of_int secondary_hits)
    +. (costs.insert *. float_of_int stores)
  in
  {
    total_insns;
    memory_insns;
    pift_events = memory_insns;
    pift_stall_cycles = stall;
    pift_overhead_pct = stall /. base_cycles *. 100.;
    sw_dift_overhead_pct =
      costs.sw_dift_per_insn *. float_of_int total_insns /. base_cycles
      *. 100.;
    event_reduction =
      (if memory_insns = 0 then Float.infinity
       else float_of_int total_insns /. float_of_int memory_insns);
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>instructions: %d (memory: %d, %.1fx event reduction)@,\
     PIFT stall cycles: %.0f -> overhead %.3f%%@,\
     inline software DIFT overhead: %.0f%%@]"
    r.total_insns r.memory_insns r.event_reduction r.pift_stall_cycles
    r.pift_overhead_pct r.sw_dift_overhead_pct
