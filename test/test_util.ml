(* Unit and property tests for Pift_util. *)

module Range = Pift_util.Range
module Histogram = Pift_util.Histogram
module Series = Pift_util.Series
module Rng = Pift_util.Rng
module Textplot = Pift_util.Textplot
module Wire = Pift_util.Wire

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Range ------------------------------------------------------------- *)

let test_range_basics () =
  let r = Range.make 10 20 in
  checki "lo" 10 (Range.lo r);
  checki "hi" 20 (Range.hi r);
  checki "length" 11 (Range.length r);
  checki "byte length" 1 (Range.length (Range.byte 5));
  checki "of_len hi" 13 (Range.hi (Range.of_len 10 4));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Range.make: hi < lo")
    (fun () -> ignore (Range.make 5 4));
  Alcotest.check_raises "negative"
    (Invalid_argument "Range.make: negative address") (fun () ->
      ignore (Range.make (-1) 4));
  Alcotest.check_raises "zero length"
    (Invalid_argument "Range.of_len: non-positive length") (fun () ->
      ignore (Range.of_len 0 0))

let test_range_overlaps () =
  let r a b = Range.make a b in
  checkb "identical" true (Range.overlaps (r 0 4) (r 0 4));
  checkb "partial" true (Range.overlaps (r 0 4) (r 4 8));
  checkb "contained" true (Range.overlaps (r 0 10) (r 3 5));
  checkb "disjoint" false (Range.overlaps (r 0 4) (r 5 8));
  checkb "adjacent yes" true (Range.adjacent (r 0 4) (r 5 8));
  checkb "adjacent sym" true (Range.adjacent (r 5 8) (r 0 4));
  checkb "adjacent no" false (Range.adjacent (r 0 4) (r 6 8));
  checkb "contains" true (Range.contains (r 3 7) 7);
  checkb "not contains" false (Range.contains (r 3 7) 8);
  checkb "covers" true (Range.covers (r 0 10) (r 3 5));
  checkb "covers not" false (Range.covers (r 3 5) (r 0 10))

let test_range_set_ops () =
  let r a b = Range.make a b in
  check (Alcotest.testable Range.pp Range.equal) "union" (r 0 8)
    (Range.union (r 0 4) (r 5 8));
  Alcotest.check_raises "disjoint union"
    (Invalid_argument "Range.union: disjoint ranges") (fun () ->
      ignore (Range.union (r 0 4) (r 6 8)));
  (match Range.inter (r 0 5) (r 3 9) with
  | Some i -> checkb "inter" true (Range.equal i (r 3 5))
  | None -> Alcotest.fail "expected intersection");
  checkb "no inter" true (Range.inter (r 0 2) (r 3 4) = None);
  checki "subtract middle" 2 (List.length (Range.subtract (r 0 10) (r 3 5)));
  checki "subtract all" 0 (List.length (Range.subtract (r 3 5) (r 0 10)));
  checki "subtract left" 1 (List.length (Range.subtract (r 0 10) (r 0 5)));
  checki "subtract disjoint" 1
    (List.length (Range.subtract (r 0 4) (r 8 9)))

let range_gen =
  QCheck2.Gen.(
    let* lo = int_range 0 200 in
    let* len = int_range 1 50 in
    return (Range.of_len lo len))

let prop_subtract_disjoint =
  QCheck2.Test.make ~name:"subtract pieces never overlap the cut"
    ~count:500
    QCheck2.Gen.(pair range_gen range_gen)
    (fun (a, b) ->
      List.for_all (fun p -> not (Range.overlaps p b)) (Range.subtract a b))

let prop_subtract_preserves =
  QCheck2.Test.make ~name:"subtract preserves exactly a \\ b" ~count:500
    QCheck2.Gen.(pair range_gen range_gen)
    (fun (a, b) ->
      let pieces = Range.subtract a b in
      let member x =
        List.exists (fun p -> Range.contains p x) pieces
      in
      let ok = ref true in
      for x = Range.lo a to Range.hi a do
        let expect = not (Range.contains b x) in
        if member x <> expect then ok := false
      done;
      !ok)

let prop_overlap_naive =
  QCheck2.Test.make ~name:"overlaps agrees with the naive definition"
    ~count:500
    QCheck2.Gen.(pair range_gen range_gen)
    (fun (a, b) ->
      let naive = ref false in
      for x = Range.lo a to Range.hi a do
        if Range.contains b x then naive := true
      done;
      Range.overlaps a b = !naive)

(* --- Histogram ---------------------------------------------------------- *)

let test_histogram () =
  let h = Histogram.create () in
  checkb "empty" true (Histogram.is_empty h);
  Histogram.add h 3;
  Histogram.add h 3;
  Histogram.add_many h 7 2;
  checki "count 3" 2 (Histogram.count h 3);
  checki "count 7" 2 (Histogram.count h 7);
  checki "count miss" 0 (Histogram.count h 4);
  checki "total" 4 (Histogram.total h);
  Alcotest.(check (float 1e-9)) "pdf" 0.5 (Histogram.pdf h 3);
  Alcotest.(check (float 1e-9)) "cdf mid" 0.5 (Histogram.cdf h 5);
  Alcotest.(check (float 1e-9)) "cdf all" 1.0 (Histogram.cdf h 7);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Histogram.mean h);
  checki "min" 3 (Histogram.min_value h);
  checki "max" 7 (Histogram.max_value h);
  checki "p50" 3 (Histogram.percentile h 0.5);
  checki "p100" 7 (Histogram.percentile h 1.0);
  checki "bindings" 2 (List.length (Histogram.bindings h));
  let h2 = Histogram.merge h h in
  checki "merge total" 8 (Histogram.total h2)

let test_histogram_errors () =
  let h = Histogram.create () in
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Histogram.percentile h 0.5));
  Alcotest.check_raises "max empty"
    (Invalid_argument "Histogram.max_value: empty") (fun () ->
      ignore (Histogram.max_value h))

(* --- Series ------------------------------------------------------------- *)

let test_series () =
  let s = Series.create ~name:"x" () in
  Alcotest.(check string) "name" "x" (Series.name s);
  checkb "empty last" true (Series.last_value s = None);
  Series.record s ~time:1 ~value:10;
  Series.record s ~time:5 ~value:20;
  Series.record_if_changed s ~time:6 ~value:20;
  Series.record_if_changed s ~time:7 ~value:30;
  checki "length" 3 (Series.length s);
  checkb "last" true (Series.last_value s = Some 30);
  checkb "max" true (Series.max_value s = Some 30);
  checki "value before" 0 (Series.value_at s 0);
  checki "value at 1" 10 (Series.value_at s 1);
  checki "value mid" 10 (Series.value_at s 4);
  checki "value 5" 20 (Series.value_at s 6);
  checki "value after" 30 (Series.value_at s 100);
  Alcotest.check_raises "time backwards"
    (Invalid_argument "Series.record: time going backwards") (fun () ->
      Series.record s ~time:2 ~value:1)

let test_series_downsample () =
  let s = Series.create () in
  for i = 0 to 99 do
    Series.record s ~time:i ~value:(i * 2)
  done;
  let d = Series.downsample s 10 in
  checki "downsample size" 10 (List.length d);
  let last_t, last_v = List.nth d 9 in
  checki "last time" 99 last_t;
  checki "last value" 198 last_v;
  checki "small passthrough" 100 (List.length (Series.downsample s 200))

(* --- Rng ---------------------------------------------------------------- *)

let test_rng () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  checkb "deterministic" true (seq a = seq b);
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    checkb "bound" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 9 in
    checkb "int_in" true (w >= 5 && w <= 9)
  done;
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  checkb "shuffle is a permutation" true (sorted = Array.init 50 Fun.id);
  checkb "pick member" true (Array.exists (Int.equal (Rng.pick r arr)) arr);
  let r2 = Rng.split r in
  checkb "split independent" true (Rng.int r 1000 >= 0 && Rng.int r2 1000 >= 0)

(* --- Textplot ------------------------------------------------------------ *)

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else String.sub haystack i n = needle || go (i + 1)
  in
  go 0

let test_textplot () =
  let out =
    render (fun ppf ->
        Textplot.bar_chart ~title:"bars" [ ("a", 1.); ("b", 2.) ] ppf ())
  in
  checkb "bar chart has title" true (contains out "bars");
  checkb "bar chart has labels" true (contains out "a" && contains out "b");
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 1; 2; 40 ];
  let out = render (fun ppf -> Textplot.distribution ~title:"d" h ppf ()) in
  checkb "distribution overflow row" true (contains out ">30")

let test_heatmap () =
  let out =
    render (fun ppf ->
        Textplot.heatmap ~title:"h" ~row_label:"r" ~col_label:"c"
          ~rows:[ 1; 2 ] ~cols:[ 1; 2; 3 ]
          (fun ~row ~col -> float_of_int (row * col))
          ppf ())
  in
  checkb "heatmap non-empty" true (String.length out > 20)

(* --- Wire ----------------------------------------------------------------- *)

(* [f] over a cursor on ["WIRETEST" ^ bytes]: its result, or the
   failure message. *)
let wire_decode bytes f =
  let path = Tmp_file.path "pift_wire_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc ("WIRETEST" ^ bytes));
      Wire.with_file path (fun fd ->
          match f (Wire.open_cursor ~what:"Wire" ~magic:"WIRETEST" fd) with
          | v -> Ok v
          | exception Failure m -> Error m))

(* One record with tag 0 and [fields] (under 127 bytes). *)
let wire_record fields =
  String.make 1 (Char.chr (1 + String.length fields)) ^ "\000" ^ fields

let wire_field c =
  ignore (Wire.next c);
  let v = Wire.varint c in
  Wire.finish c;
  v

let test_wire_round_trip () =
  let values = [ 0; 1; 127; 128; 300; max_int; -1; min_int ] in
  let path = Tmp_file.path "pift_wire_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "WIRETEST";
          let w = Wire.writer oc in
          List.iter
            (fun v ->
              let b = Wire.payload w in
              Buffer.add_char b '\007';
              Wire.add_svarint b v;
              Wire.add_varint b (v land max_int);
              Wire.add_string b (string_of_int v);
              Wire.emit w)
            values);
      Wire.with_file path (fun fd ->
          let c = Wire.open_cursor ~what:"Wire" ~magic:"WIRETEST" fd in
          List.iter
            (fun v ->
              checki "tag" 7 (Wire.next c);
              checki "svarint" v (Wire.svarint c);
              checki "varint" (v land max_int) (Wire.varint c);
              check Alcotest.string "string" (string_of_int v)
                (Wire.string c "truncated string");
              Wire.finish c)
            values;
          checki "end of stream" (-1) (Wire.next c)))

(* Varints are capped at 9 bytes (63 value bits): a 9th byte with its
   continuation bit set is refused, in a record and in the header. *)
let test_wire_varint_cap () =
  let nine = String.make 8 '\xff' ^ "\x3f"
  and ten = String.make 9 '\x80' ^ "\x01" in
  let result = Alcotest.(result int string) in
  check result "9-byte field" (Ok max_int) (wire_decode (wire_record nine) wire_field);
  check result "10-byte field" (Error "Wire: record 1: varint overflow")
    (wire_decode (wire_record ten) wire_field);
  check result "9-byte header varint" (Ok max_int)
    (wire_decode nine Wire.header_varint);
  check result "10-byte header varint" (Error "Wire: record 0: varint overflow")
    (wire_decode ten Wire.header_varint);
  check result "10-byte record length" (Error "Wire: record 1: varint overflow")
    (wire_decode ten Wire.next);
  (* a string length near max_int must not wrap the bounds check *)
  check result "max_int string length"
    (Error "Wire: record 1: truncated string")
    (wire_decode (wire_record nine) (fun c ->
         ignore (Wire.next c);
         String.length (Wire.string c "truncated string")))

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_subtract_disjoint; prop_subtract_preserves; prop_overlap_naive ]

let () =
  Alcotest.run "pift_util"
    [
      ( "range",
        [
          Alcotest.test_case "basics" `Quick test_range_basics;
          Alcotest.test_case "overlaps" `Quick test_range_overlaps;
          Alcotest.test_case "set ops" `Quick test_range_set_ops;
        ] );
      ("range-properties", qsuite);
      ( "histogram",
        [
          Alcotest.test_case "counting" `Quick test_histogram;
          Alcotest.test_case "errors" `Quick test_histogram_errors;
        ] );
      ( "series",
        [
          Alcotest.test_case "recording" `Quick test_series;
          Alcotest.test_case "downsample" `Quick test_series_downsample;
        ] );
      ("rng", [ Alcotest.test_case "behaviour" `Quick test_rng ]);
      ( "wire",
        [
          Alcotest.test_case "round trip" `Quick test_wire_round_trip;
          Alcotest.test_case "9-byte varint cap" `Quick test_wire_varint_cap;
        ] );
      ( "textplot",
        [
          Alcotest.test_case "charts" `Quick test_textplot;
          Alcotest.test_case "heatmap" `Quick test_heatmap;
        ] );
    ]
