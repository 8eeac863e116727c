(* Tests for Dice_util.Rng. *)
module Rng = Dice_util.Rng

let test_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 7L and b = Rng.create 8L in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_int_range () =
  let rng = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_int_in_range () =
  let rng = Rng.create 2L in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 9 in
    Alcotest.(check bool) "in [-5,9]" true (v >= -5 && v <= 9)
  done

let test_int_in_point () =
  let rng = Rng.create 3L in
  Alcotest.(check int) "singleton range" 4 (Rng.int_in rng 4 4)

let test_float_range () =
  let rng = Rng.create 4L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bool_mixes () =
  let rng = Rng.create 5L in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 400 && !trues < 600)

let test_chance_extremes () =
  let rng = Rng.create 6L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.chance rng 1.0);
    Alcotest.(check bool) "p=0 never true" false (Rng.chance rng 0.0)
  done

let test_pick () =
  let rng = Rng.create 7L in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.pick rng arr) arr)
  done

let test_pick_list () =
  let rng = Rng.create 8L in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (List.mem (Rng.pick_list rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done

let test_split_independent () =
  let a = Rng.create 10L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_copy_replays () =
  let a = Rng.create 11L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_exponential_positive () =
  let rng = Rng.create 16L in
  for _ = 1 to 500 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 2.0 > 0.0)
  done

let test_exponential_mean () =
  let rng = Rng.create 17L in
  let s = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    s := !s +. Rng.exponential rng 4.0
  done;
  let mean = !s /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (mean > 0.2 && mean < 0.3)

let suite =
  [ ("determinism", `Quick, test_determinism);
    ("seed sensitivity", `Quick, test_seed_sensitivity);
    ("int range", `Quick, test_int_range);
    ("int_in range", `Quick, test_int_in_range);
    ("int_in point", `Quick, test_int_in_point);
    ("float range", `Quick, test_float_range);
    ("bool mixes", `Quick, test_bool_mixes);
    ("chance extremes", `Quick, test_chance_extremes);
    ("pick", `Quick, test_pick);
    ("pick_list", `Quick, test_pick_list);
    ("split independent", `Quick, test_split_independent);
    ("copy replays", `Quick, test_copy_replays);
    ("exponential positive", `Quick, test_exponential_positive);
    ("exponential mean", `Quick, test_exponential_mean)
  ]
