open Dice_inet

type config = {
  default_local_pref : int;
  always_compare_med : bool;
  missing_med_worst : bool;
}

let default_config =
  { default_local_pref = 100; always_compare_med = false; missing_med_worst = false }

type candidate = Route.t * Route.src

(* Each rule returns a signed comparison; 0 falls through to the next. *)
let rules config =
  let local_pref (r : Route.t) =
    match r.local_pref with
    | Some v -> v
    | None -> config.default_local_pref
  in
  let med (r : Route.t) =
    match r.med with
    | Some v -> v
    | None -> if config.missing_med_worst then 0xFFFFFFFF else 0
  in
  [
    ( "local-pref",
      fun (ra, _) (rb, _) -> Int.compare (local_pref rb) (local_pref ra) );
    ( "local-origin",
      fun ((_, sa) : candidate) (_, sb) ->
        Bool.compare (sb = Route.static_src) (sa = Route.static_src) );
    ( "as-path-length",
      fun (ra, _) (rb, _) ->
        Int.compare (Asn.Path.length ra.Route.as_path) (Asn.Path.length rb.Route.as_path) );
    ( "origin",
      fun (ra, _) (rb, _) ->
        Int.compare (Attr.origin_code ra.Route.origin) (Attr.origin_code rb.Route.origin) );
    ( "med",
      fun (ra, _) (rb, _) ->
        let comparable =
          config.always_compare_med
          || (match (Route.neighbor_as ra, Route.neighbor_as rb) with
             | Some a, Some b -> a = b
             | _, _ -> false)
        in
        if comparable then Int.compare (med ra) (med rb) else 0 );
    ("ebgp-over-ibgp", fun (_, sa) (_, sb) -> Bool.compare sb.Route.ebgp sa.Route.ebgp);
    ( "bgp-id",
      fun (_, sa) (_, sb) -> Ipv4.compare sa.Route.peer_bgp_id sb.Route.peer_bgp_id );
    ("peer-address", fun (_, sa) (_, sb) -> Ipv4.compare sa.Route.peer_addr sb.Route.peer_addr);
  ]

(* The rule list is built once for the default configuration, not on
   every comparison. *)
let default_rules = rules default_config

let rules_of = function
  | None -> default_rules
  | Some config -> rules config

let rec compare_by rules a b =
  match rules with
  | [] -> 0
  | (_, rule) :: rest ->
    let c = rule a b in
    if c <> 0 then c else compare_by rest a b

let compare ?config a b = compare_by (rules_of config) a b

let best ?config candidates =
  match candidates with
  | [] -> None
  | first :: rest ->
    let rules = rules_of config in
    Some (List.fold_left (fun acc c -> if compare_by rules c acc < 0 then c else acc) first rest)

let explain ?(config = default_config) a b =
  let rec go = function
    | [] -> "identical preference"
    | (name, rule) :: rest ->
      let c = rule a b in
      if c < 0 then Printf.sprintf "first wins on %s" name
      else if c > 0 then Printf.sprintf "second wins on %s" name
      else go rest
  in
  go (rules config)
