type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t }

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the value is non-negative in OCaml's 63-bit int *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let chance t p = float t 1.0 < p

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_list t l =
  assert (l <> []);
  List.nth l (int t (List.length l))

let exponential t rate =
  assert (rate > 0.0);
  let u = Stdlib.max 1e-12 (float t 1.0) in
  -.Float.log u /. rate
