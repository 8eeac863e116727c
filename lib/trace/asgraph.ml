module Rng = Dice_util.Rng

type link =
  | Transit of { customer : int; provider : int }
  | Peering of int * int

type t = {
  providers : int list array;
  links : link list;  (* creation order *)
  cum : int array;  (* cum.(i) = sum over j <= i of deg(j) + 1 *)
}

let generate ~rng n =
  if n < 1 then invalid_arg "Asgraph.generate: need at least one AS";
  let t1 = min 8 (max 1 (n / 4)) in
  let deg = Array.make n 0 in
  let providers = Array.make n [] in
  let links = ref [] and n_links = ref 0 in
  let add l i j =
    links := l :: !links;
    incr n_links;
    deg.(i) <- deg.(i) + 1;
    deg.(j) <- deg.(j) + 1
  in
  (* Roulette over degree+1 among the [i] nodes placed before [i], so
     early well-connected providers keep attracting customers and the
     degree distribution goes heavy-tailed like the real AS graph. Only
     nodes up to [i] have links yet, so their weights sum to
     2·links − deg(i) + i without a pass over them. *)
  let pick i =
    let r = Rng.int rng ((2 * !n_links) - deg.(i) + i) in
    let rec find j acc =
      let acc = acc + deg.(j) + 1 in
      if r < acc then j else find (j + 1) acc
    in
    find 0 0
  in
  (* tier-1 core: a full settlement-free mesh *)
  for i = 1 to t1 - 1 do
    for j = 0 to i - 1 do
      add (Peering (j, i)) i j
    done
  done;
  (* everyone below the core buys transit from one or two established
     providers, then sometimes peers sideways with an unrelated AS *)
  for i = t1 to n - 1 do
    let p1 = pick i in
    add (Transit { customer = i; provider = p1 }) i p1;
    providers.(i) <- [ p1 ];
    if Rng.chance rng 0.3 then begin
      let p2 = pick i in
      if p2 <> p1 then begin
        add (Transit { customer = i; provider = p2 }) i p2;
        providers.(i) <- p2 :: providers.(i)
      end
    end;
    if i > t1 && Rng.chance rng 0.15 then begin
      let j = t1 + Rng.int rng (i - t1) in
      if not (List.mem j providers.(i)) then add (Peering (i, j)) i j
    end
  done;
  let cum = Array.make n 0 in
  Array.iteri (fun i d -> cum.(i) <- (if i = 0 then 0 else cum.(i - 1)) + d + 1) deg;
  { providers; links = List.rev !links; cum }

let links t = t.links
let providers t i = t.providers.(i)

let random_node t ~rng =
  let n = Array.length t.cum in
  let r = Rng.int rng t.cum.(n - 1) in
  (* the first node whose running sum passes [r] *)
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cum.(mid) > r then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let climb t ~rng origin =
  let rec go i acc =
    match t.providers.(i) with
    | [] -> i :: acc
    | ps -> go (Rng.pick_list rng ps) (i :: acc)
  in
  go origin []
