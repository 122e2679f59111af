(* Minimal seeded property-testing harness for the taint-store
   differential suite.

   Deliberately tiny instead of qcheck: cases are driven by the
   repo's own deterministic [Pift_util.Rng] (so a CI failure replays
   bit-exactly from the printed seed), the generator is specialised to
   adversarial taint-store op sequences, and shrinking is greedy chunk
   removal over those sequences.  Set PIFT_PROP_SEED to replay a
   failure; the default seed is fixed so CI is deterministic. *)

module Rng = Pift_util.Rng
module Range = Pift_util.Range

(* --- operations over one taint set ------------------------------------ *)

type op = Add of Range.t | Remove of Range.t | Overlaps of Range.t

let op_to_string = function
  | Add r -> "add " ^ Range.to_string r
  | Remove r -> "remove " ^ Range.to_string r
  | Overlaps r -> "overlaps? " ^ Range.to_string r

let ops_to_string ops =
  String.concat "; " (List.map op_to_string ops)

(* --- adversarial range generator --------------------------------------- *)

(* Addresses stay below [addr_space] so the bytemap oracle stays small,
   and ranges cluster around 16-byte block boundaries: exact blocks,
   block pairs, boundary-straddlers, exact-adjacency at hi+1 (the
   closed-interval coalescing case), nested sub-ranges, and single
   bytes.  Uniform random ranges almost never exercise the coalesce /
   split / adjacency paths; these shapes hit them constantly. *)

let block = 16
let addr_space = 512
let blocks = addr_space / block

let gen_range rng =
  match Rng.int rng 7 with
  | 0 ->
      (* one exact block *)
      let b = Rng.int rng blocks in
      Range.make (b * block) (((b + 1) * block) - 1)
  | 1 ->
      (* two adjacent blocks *)
      let b = Rng.int rng (blocks - 1) in
      Range.make (b * block) (((b + 2) * block) - 1)
  | 2 ->
      (* straddles a block boundary *)
      let b = Rng.int rng (blocks - 1) in
      let lo = (b * block) + Rng.int_in rng 1 (block - 1) in
      Range.make lo (min (addr_space - 1) (lo + block - 1))
  | 3 ->
      (* ends exactly one byte before a block start: adjacent (hi+1)
         to an exact-block range, so closed-interval coalescing fires *)
      let b = Rng.int_in rng 1 (blocks - 1) in
      let len = Rng.int_in rng 1 block in
      Range.make ((b * block) - len) ((b * block) - 1)
  | 4 ->
      (* nested strictly inside a block *)
      let b = Rng.int rng blocks in
      let lo = (b * block) + 1 + Rng.int rng (block - 3) in
      let hi = min (((b + 1) * block) - 2) (lo + Rng.int rng (block - 2)) in
      Range.make lo (max lo hi)
  | 5 ->
      (* single byte *)
      Range.byte (Rng.int rng addr_space)
  | _ ->
      (* arbitrary small range *)
      let lo = Rng.int rng addr_space in
      Range.make lo (min (addr_space - 1) (lo + Rng.int rng 40))

let gen_op rng =
  match Rng.int rng 5 with
  | 0 | 1 -> Add (gen_range rng)
  | 2 -> Remove (gen_range rng)
  | _ -> Overlaps (gen_range rng)

(* Explicit recursion, head first: List.init's evaluation order is
   unspecified, which would make the sequence depend on the stdlib's
   choice rather than on the seed alone. *)
let gen_ops rng n =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (gen_op rng :: acc) in
  go n []

(* --- the oracle store ---------------------------------------------------- *)

(* A {!Pift_core.Store.t} over per-pid {!Store_bytemap} sets:
   the trivially correct per-byte oracle behind the same record the
   tracker runs against, so store-level cases and whole-tracker
   replays can be checked against it.  Totals are re-summed over every
   pid on each read — slow, and independent of the production store's
   incremental bookkeeping.  Dense from address 0: keep addresses
   small. *)
let bytemap_store () : Pift_core.Store.t =
  let module B = Store_bytemap in
  let sets : (int, B.t) Hashtbl.t = Hashtbl.create 4 in
  let set pid =
    match Hashtbl.find_opt sets pid with
    | Some s -> s
    | None ->
        let s = B.create () in
        Hashtbl.add sets pid s;
        s
  in
  let sum f = Hashtbl.fold (fun _ s acc -> acc + f s) sets 0 in
  let ranges pid =
    match Hashtbl.find_opt sets pid with Some s -> B.ranges s | None -> []
  in
  {
    add = (fun ~pid r -> B.add (set pid) r);
    remove = (fun ~pid r -> B.remove (set pid) r);
    overlaps =
      (fun ~pid r ->
        match Hashtbl.find_opt sets pid with
        | Some s -> B.mem_overlap s r
        | None -> false);
    tainted_bytes = (fun () -> sum B.total_bytes);
    range_count = (fun () -> sum B.cardinal);
    ranges = (fun ~pid -> ranges pid);
    release_pid = (fun ~pid -> Hashtbl.remove sets pid);
    dump =
      (fun () ->
        Hashtbl.fold (fun pid _ acc -> pid :: acc) sets []
        |> List.sort compare
        |> List.filter_map (fun pid ->
               match ranges pid with [] -> None | rs -> Some (pid, rs)));
    merges = (fun () -> failwith "bytemap store: merges unused");
  }

(* --- byte mutations ------------------------------------------------------ *)

(* Seeded corruptions of a committed fixture's bytes, for the decoder
   properties: every mutant must decode cleanly or fail with the
   decoder's positioned error. *)

(* A run of 0xff bytes over [len] bytes from [at]. *)
let ff_run bytes at len =
  let b = Bytes.of_string bytes in
  Bytes.fill b at (min len (Bytes.length b - at)) '\xff';
  Bytes.to_string b

(* The bytes [a, a + len) copied over the bytes from [at] on: a
   duplicated or shifted stretch of records, as a bad concatenation
   leaves. *)
let splice bytes a len at =
  String.sub bytes 0 at ^ String.sub bytes a len
  ^ String.sub bytes at (String.length bytes - at)

let gen_mutation bytes rng =
  let n = String.length bytes in
  match Rng.int rng 2 with
  | 0 ->
      let at = Rng.int rng n in
      let len = Rng.int_in rng 1 12 in
      (Printf.sprintf "0xff x %d at %d" len at, ff_run bytes at len)
  | _ ->
      let a = Rng.int rng n in
      let len = Rng.int_in rng 1 (n - a) in
      let at = Rng.int rng n in
      (Printf.sprintf "splice [%d, %d) at %d" a (a + len) at, splice bytes a len at)

(* --- shrinking ---------------------------------------------------------- *)

(* Candidate smaller sequences: drop a chunk of half the length, then
   quarters, and so on down to single ops — standard list shrinking,
   greedy (first still-failing candidate wins each round). *)
let shrink_candidates ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let drop start len =
    List.filteri (fun i _ -> i < start || i >= start + len) ops
  in
  let rec chunks size acc =
    if size = 0 then List.rev acc
    else begin
      let rec starts s acc =
        if s + size > n then acc else starts (s + size) (drop s size :: acc)
      in
      chunks (size / 2) (starts 0 acc)
    end
  in
  if n = 0 then [] else chunks (n / 2) []

let minimize prop ops =
  let rec go ops =
    match List.find_opt (fun c -> Result.is_error (prop c)) (shrink_candidates ops) with
    | Some smaller -> go smaller
    | None -> ops
  in
  go ops

(* --- runner ------------------------------------------------------------- *)

let default_seed = 0xD1F7

let seed () =
  match Sys.getenv_opt "PIFT_PROP_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None -> Alcotest.failf "PIFT_PROP_SEED=%S is not an integer" s)
  | None -> default_seed

(* [check_gen ~name ~count ~gen ~shrink ~to_string prop] is the generic
   core: [count] cases drawn by [gen] from a per-case split of the
   seeded rng, failures minimized through [shrink] (a function from a
   counterexample to smaller candidates; return [[]] to skip
   shrinking).  [check] below specialises it to taint-store op
   sequences; the provenance graph-builder properties reuse it over
   synthetic recordings. *)
let check_gen ~name ?(count = 100) ~gen ~shrink ~to_string prop =
  let seed = seed () in
  let rng = Rng.create seed in
  let rec minimize x =
    match
      List.find_opt (fun c -> Result.is_error (prop c)) (shrink x)
    with
    | Some smaller -> minimize smaller
    | None -> x
  in
  for case = 1 to count do
    (* One split per case: a failure in case k replays without
       re-running cases 1..k-1's generators. *)
    let case_rng = Rng.split rng in
    let x = gen case_rng in
    match prop x with
    | Ok () -> ()
    | Error msg ->
        let minimal = minimize x in
        let detail =
          match prop minimal with Error m -> m | Ok () -> msg
        in
        Alcotest.failf
          "%s: case %d/%d failed — replay with PIFT_PROP_SEED=%d@.%s@.minimal \
           counterexample: %s"
          name case count seed detail (to_string minimal)
  done

(* [check ~name ~count ~len prop] runs [prop] on [count] fresh op
   sequences of [len] ops each.  On failure the sequence is shrunk and
   the test fails with the minimal counterexample plus the seed needed
   to replay the whole run. *)
let check ~name ?(count = 100) ?(len = 100) prop =
  check_gen ~name ~count
    ~gen:(fun rng -> gen_ops rng len)
    ~shrink:shrink_candidates
    ~to_string:(fun ops ->
      Printf.sprintf "(%d ops): %s" (List.length ops) (ops_to_string ops))
    prop
