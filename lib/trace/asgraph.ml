module Rng = Dice_util.Rng

let base_asn = 64600

type t = {
  n : int;
  provider_lists : int list array;  (* index -> provider indices *)
  n_tier1 : int;
}

let idx_of_asn asn = asn - base_asn
let asn_of_idx i = base_asn + i

let generate ~rng ~n_ases () =
  if n_ases < 1 then invalid_arg "Asgraph.generate: need at least one AS";
  let n_tier1 = min 8 n_ases in
  let provider_lists = Array.make n_ases [] in
  let degrees = Array.make n_ases 0 in
  (* tier-1 clique *)
  for i = 0 to n_tier1 - 1 do
    degrees.(i) <- n_tier1 - 1
  done;
  (* preferential attachment for the rest *)
  let total_degree = ref (n_tier1 * (n_tier1 - 1)) in
  for i = n_tier1 to n_ases - 1 do
    let n_providers = if Rng.chance rng 0.3 then 2 else 1 in
    let pick () =
      (* roulette over degrees of existing ASes, with +1 smoothing *)
      let target = Rng.int rng (!total_degree + i) in
      let rec find j acc =
        if j >= i - 1 then j
        else begin
          let acc = acc + degrees.(j) + 1 in
          if acc > target then j else find (j + 1) acc
        end
      in
      find 0 0
    in
    let rec add_providers k acc =
      if k = 0 then acc
      else begin
        let p = pick () in
        if List.mem p acc then add_providers k acc else add_providers (k - 1) (p :: acc)
      end
    in
    let providers = add_providers n_providers [] in
    provider_lists.(i) <- providers;
    List.iter
      (fun p ->
        degrees.(p) <- degrees.(p) + 1;
        total_degree := !total_degree + 2)
      providers;
    degrees.(i) <- List.length providers
  done;
  { n = n_ases; provider_lists; n_tier1 }

let n_ases t = t.n

let asns t = Array.init t.n asn_of_idx

let check t asn =
  let i = idx_of_asn asn in
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Asgraph: unknown AS %d" asn);
  i

let providers t asn = List.map asn_of_idx t.provider_lists.(check t asn)

let random_as t ~rng =
  (* Zipf over creation order approximates degree bias (earlier ASes are
     better connected under preferential attachment). *)
  let i = Rng.zipf rng t.n 0.9 - 1 in
  asn_of_idx i

let path_from_origin t ~rng ~collector_as ~origin =
  let oi = check t origin in
  (* climb provider chains from the origin to a tier-1 *)
  let rec climb i acc guard =
    if i < t.n_tier1 || guard = 0 then i :: acc
    else begin
      match t.provider_lists.(i) with
      | [] -> i :: acc
      | ps -> begin
        let p = Rng.pick_list rng ps in
        climb p (i :: acc) (guard - 1)
      end
    end
  in
  (* [chain] is tier1 .. origin (top-down) *)
  let chain = climb oi [] 12 in
  let path = List.map asn_of_idx chain in
  let path = List.filter (fun a -> a <> collector_as) path in
  collector_as :: path
