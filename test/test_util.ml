(* Tests for Dice_util.Stats, Hashutil. *)
module Stats = Dice_util.Stats
module Hashutil = Dice_util.Hashutil

let feq = Alcotest.(check (float 1e-9))

(* ---- Stats ---- *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  feq "mean" 0.0 (Stats.mean s);
  Alcotest.(check bool) "min nan" true (Float.is_nan (Stats.min s));
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.percentile s 50.0))

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 4.0;
  feq "mean" 4.0 (Stats.mean s);
  feq "stddev" 0.0 (Stats.stddev s);
  feq "min" 4.0 (Stats.min s);
  feq "max" 4.0 (Stats.max s);
  feq "median" 4.0 (Stats.median s)

let test_stats_known () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  feq "mean" 5.0 (Stats.mean s);
  feq "total" 40.0 (Stats.total s);
  (* sample stddev of this classic data set: sqrt(32/7) *)
  feq "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev s)

let test_stats_percentile_interp () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0; 40.0 ];
  feq "p0" 10.0 (Stats.percentile s 0.0);
  feq "p100" 40.0 (Stats.percentile s 100.0);
  feq "p50" 25.0 (Stats.percentile s 50.0);
  (* rank 1/3 between elements *)
  feq "p25" 17.5 (Stats.percentile s 25.0)

let test_stats_order_independent () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 5.0; 3.0 ];
  List.iter (Stats.add b) [ 5.0; 3.0; 1.0 ];
  feq "median" (Stats.median a) (Stats.median b)

let test_stats_to_list () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check (list (float 0.0))) "insertion order" [ 1.0; 2.0; 3.0 ] (Stats.to_list s)

let test_stats_summary () =
  let s = Stats.create () in
  Alcotest.(check string) "empty" "n=0" (Stats.summary s);
  Stats.add s 1.0;
  Alcotest.(check bool) "mentions n" true
    (String.length (Stats.summary s) > 0
    && String.sub (Stats.summary s) 0 3 = "n=1")

let test_stats_percentile_out_of_range () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0 ];
  (* out-of-range p clamps to the extrema instead of indexing out of
     bounds (the pre-fix behaviour raised Invalid_argument) *)
  feq "p<0 clamps to min" 10.0 (Stats.percentile s (-5.0));
  feq "p>100 clamps to max" 30.0 (Stats.percentile s 200.0);
  feq "nan p clamps to min" 10.0 (Stats.percentile s Float.nan)

(* Property: an accumulator never crashes and stays self-consistent on
   the degenerate sizes (empty handled above; here 1+ samples with
   arbitrary percentile requests). *)
let prop_stats_single_sample =
  QCheck.Test.make ~name:"stats: single-sample accumulator is the sample everywhere"
    ~count:200
    QCheck.(pair (float_bound_exclusive 1e6) (float_bound_inclusive 300.0))
    (fun (x, p) ->
      let s = Stats.create () in
      Stats.add s x;
      let pct = Stats.percentile s (p -. 100.0) (* range [-100, 200] *) in
      Stats.count s = 1
      && Stats.mean s = x
      && Stats.min s = x
      && Stats.max s = x
      && Stats.stddev s = 0.0
      && Stats.median s = x
      && pct = x)

let prop_stats_percentile_bounded =
  QCheck.Test.make ~name:"stats: percentile stays within extrema for any p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1e6))
        (float_bound_inclusive 300.0))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s (p -. 100.0) in
      Stats.min s <= v && v <= Stats.max s)

(* ---- Hashutil ---- *)

let test_fnv_known () =
  (* FNV-1a 64 of empty input is the offset basis *)
  Alcotest.(check int64) "empty" 0xCBF29CE484222325L (Hashutil.fnv1a_string "")

let test_fnv_differs () =
  Alcotest.(check bool) "a vs b" true
    (Hashutil.fnv1a_string "a" <> Hashutil.fnv1a_string "b")

let test_fnv_bytes_window () =
  let b = Bytes.of_string "xxhelloyy" in
  Alcotest.(check int64) "windowed" (Hashutil.fnv1a_string "hello")
    (Hashutil.fnv1a_bytes b 2 5)

let test_combine_order () =
  let a = 123L and b = 456L in
  Alcotest.(check bool) "order sensitive" true
    (Hashutil.combine a b <> Hashutil.combine b a)

let suite =
  [ ("stats empty", `Quick, test_stats_empty);
    ("stats single", `Quick, test_stats_single);
    ("stats known values", `Quick, test_stats_known);
    ("stats percentile interpolation", `Quick, test_stats_percentile_interp);
    ("stats order independent", `Quick, test_stats_order_independent);
    ("stats to_list", `Quick, test_stats_to_list);
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile out of range", `Quick, test_stats_percentile_out_of_range);
    QCheck_alcotest.to_alcotest prop_stats_single_sample;
    QCheck_alcotest.to_alcotest prop_stats_percentile_bounded;
    ("fnv known", `Quick, test_fnv_known);
    ("fnv differs", `Quick, test_fnv_differs);
    ("fnv bytes window", `Quick, test_fnv_bytes_window);
    ("combine order", `Quick, test_combine_order)
  ]
