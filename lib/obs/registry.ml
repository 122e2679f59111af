type kind = Counter_kind | Gauge_kind | Histogram_kind

let kind_to_string = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

type point =
  | P_counter of int
  | P_gauge of { value : float; peak : float }
  | P_histogram of {
      count : int;
      sum : int;
      vmax : int;
      buckets : (int * int) list;
    }

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_points : ((string * string) list * point) list;
}

(* Bucket b >= 1 holds [2^(b-1), 2^b - 1]: b is the bit length of v. *)
let bucket_of v =
  let b = ref 0 and x = ref (max v 0) in
  while !x > 0 do
    incr b;
    x := !x lsr 1
  done;
  !b

let log2_histogram vs =
  (* 62 power-of-two buckets cover every positive OCaml int. *)
  let counts = Array.make 63 0 in
  List.iter (fun v -> counts.(bucket_of v) <- counts.(bucket_of v) + 1) vs;
  let buckets = ref [] in
  for b = Array.length counts - 1 downto 0 do
    if counts.(b) > 0 then
      buckets := ((if b = 0 then 0 else (1 lsl b) - 1), counts.(b)) :: !buckets
  done;
  P_histogram
    {
      count = List.length vs;
      sum = List.fold_left ( + ) 0 vs;
      vmax = List.fold_left max 0 vs;
      buckets = !buckets;
    }
