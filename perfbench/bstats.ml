let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let interpolate a p =
  let n = Array.length a in
  let rank = p *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let min_samples p =
  if p <= 0.5 then 1 else int_of_float (Float.ceil ((10.0 /. (1.0 -. p)) -. 1e-9))

let percentile p xs =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Bstats.percentile: p outside (0, 1)";
  if Array.length xs < min_samples p then None else Some (interpolate (sorted xs) p)

let median xs =
  if Array.length xs = 0 then invalid_arg "Bstats.median: empty sample";
  interpolate (sorted xs) 0.5

let is_alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
