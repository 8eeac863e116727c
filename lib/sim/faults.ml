type t = {
  drop : float;
  duplicate : float;
  reorder : int;
  jitter : float;
  corrupt : float;
}

let none = { drop = 0.0; duplicate = 0.0; reorder = 0; jitter = 0.0; corrupt = 0.0 }

let bad fmt = Printf.ksprintf invalid_arg fmt

let check_probability name p =
  (* [not (p >= 0.0 && p <= 1.0)] also catches NaN *)
  if not (p >= 0.0 && p <= 1.0) then bad "Faults.%s: probability %f outside [0, 1]" name p

let validate t =
  check_probability "drop" t.drop;
  check_probability "duplicate" t.duplicate;
  check_probability "corrupt" t.corrupt;
  if t.reorder < 0 then bad "Faults.reorder: negative window %d" t.reorder;
  if not (t.jitter >= 0.0 && t.jitter < Float.infinity) then
    bad "Faults.jitter: %f is not finite and non-negative" t.jitter

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0) ?(jitter = 0.0) ?(corrupt = 0.0) () =
  let t = { drop; duplicate; reorder; jitter; corrupt } in
  validate t;
  t

let is_none t =
  t.drop = 0.0 && t.duplicate = 0.0 && t.reorder = 0 && t.jitter = 0.0 && t.corrupt = 0.0

let pp ppf t =
  Format.fprintf ppf "drop=%.2f dup=%.2f reorder=%d jitter=%.3fs corrupt=%.2f" t.drop
    t.duplicate t.reorder t.jitter t.corrupt

(* ---- node crash model ---- *)

type node = {
  crash : float;
  downtime : float;
}

let node_none = { crash = 0.0; downtime = 0.0 }

let validate_node n =
  check_probability "crash" n.crash;
  if not (n.downtime >= 0.0 && n.downtime < Float.infinity) then
    bad "Faults.downtime: %f is not finite and non-negative" n.downtime

let node ?(crash = 0.0) ?(downtime = 0.0) () =
  let n = { crash; downtime } in
  validate_node n;
  n

let node_is_none n = n.crash = 0.0
