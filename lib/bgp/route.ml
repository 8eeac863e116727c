open Dice_inet

type t = {
  origin : Attr.origin;
  as_path : Asn.Path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  communities : Community.t list;
  atomic_aggregate : bool;
  aggregator : (int * Ipv4.t) option;
  unknowns : Attr.unknown list;
}

let make ?(origin = Attr.Igp) ?(med = None) ?(local_pref = None) ?(communities = [])
    ?(atomic_aggregate = false) ?(aggregator = None) ?(unknowns = []) ~as_path ~next_hop () =
  {
    origin;
    as_path;
    next_hop;
    med;
    local_pref;
    communities;
    atomic_aggregate;
    aggregator;
    unknowns;
  }

let of_attrs attrs =
  let origin = ref None
  and as_path = ref None
  and next_hop = ref None
  and med = ref None
  and local_pref = ref None
  and communities = ref []
  and atomic = ref false
  and aggregator = ref None
  and unknowns = ref [] in
  List.iter
    (fun a ->
      match a with
      | Attr.Origin o -> origin := Some o
      | Attr.As_path p -> as_path := Some p
      | Attr.Next_hop h -> next_hop := Some h
      | Attr.Med v -> med := Some v
      | Attr.Local_pref v -> local_pref := Some v
      | Attr.Communities cs -> communities := cs
      | Attr.Atomic_aggregate -> atomic := true
      | Attr.Aggregator (asn, id) -> aggregator := Some (asn, id)
      | Attr.Unknown u -> unknowns := u :: !unknowns)
    attrs;
  match (!origin, !as_path, !next_hop) with
  | None, _, _ -> Error (Attr.Missing_wellknown 1)
  | _, None, _ -> Error (Attr.Missing_wellknown 2)
  | _, _, None -> Error (Attr.Missing_wellknown 3)
  | Some origin, Some as_path, Some next_hop ->
    Ok
      {
        origin;
        as_path;
        next_hop;
        med = !med;
        local_pref = !local_pref;
        communities = !communities;
        atomic_aggregate = !atomic;
        aggregator = !aggregator;
        unknowns = List.rev !unknowns;
      }

let to_attrs t =
  let base =
    [ Attr.Origin t.origin; Attr.As_path t.as_path; Attr.Next_hop t.next_hop ]
  in
  let opt =
    List.concat
      [ (match t.med with Some v -> [ Attr.Med v ] | None -> []);
        (match t.local_pref with Some v -> [ Attr.Local_pref v ] | None -> []);
        (if t.atomic_aggregate then [ Attr.Atomic_aggregate ] else []);
        (match t.aggregator with Some (a, i) -> [ Attr.Aggregator (a, i) ] | None -> []);
        (if t.communities = [] then [] else [ Attr.Communities t.communities ]);
        List.map (fun u -> Attr.Unknown u) t.unknowns;
      ]
  in
  List.sort (fun a b -> Int.compare (Attr.type_code a) (Attr.type_code b)) (base @ opt)

let origin_as t = Asn.Path.origin_as t.as_path
let neighbor_as t = Asn.Path.first_as t.as_path

let has_community t c = List.mem c t.communities

let add_community t c =
  if has_community t c then t else { t with communities = t.communities @ [ c ] }

let remove_community t c =
  { t with communities = List.filter (fun x -> x <> c) t.communities }

let prepend_as t asn = { t with as_path = Asn.Path.prepend asn t.as_path }

(* the same route is often compared with itself (an unchanged best, a
   resent advertisement): skip the structural walk *)
let equal (a : t) (b : t) = a == b || a = b

let pp ppf t =
  Format.fprintf ppf "{path=[%a] nh=%a origin=%s lp=%s med=%s}" Asn.Path.pp t.as_path
    Ipv4.pp t.next_hop
    (Attr.origin_to_string t.origin)
    (match t.local_pref with Some v -> string_of_int v | None -> "-")
    (match t.med with Some v -> string_of_int v | None -> "-")

type src = {
  peer_addr : Ipv4.t;
  peer_asn : int;
  peer_bgp_id : Ipv4.t;
  ebgp : bool;
}

let static_src = { peer_addr = 0; peer_asn = 0; peer_bgp_id = 0; ebgp = false }
