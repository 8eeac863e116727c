open Dice_inet
open Dice_concolic

type t = {
  net_addr : Cval.t;
  net_len : Cval.t;
  next_hop : Cval.t;
  med : Cval.t;
  has_med : bool;
  local_pref : Cval.t;
  has_local_pref : bool;
  origin : Cval.t;
  origin_as : Cval.t;
  as_path : Asn.Path.t;
  communities : Community.t list;
  atomic_aggregate : bool;
  aggregator : (int * Ipv4.t) option;
  unknowns : Attr.unknown list;
}

let c32 v = Cval.concrete ~width:32 (Int64.of_int v)
let c8 v = Cval.concrete ~width:8 (Int64.of_int v)

let of_route prefix (r : Route.t) =
  {
    net_addr = c32 (Prefix.network prefix);
    net_len = c8 (Prefix.len prefix);
    next_hop = c32 r.next_hop;
    med = c32 (Option.value r.med ~default:0);
    has_med = r.med <> None;
    local_pref = c32 (Option.value r.local_pref ~default:0);
    has_local_pref = r.local_pref <> None;
    origin = c8 (Attr.origin_code r.origin);
    origin_as = c32 (Option.value (Asn.Path.origin_as r.as_path) ~default:0);
    as_path = r.as_path;
    communities = r.communities;
    atomic_aggregate = r.atomic_aggregate;
    aggregator = r.aggregator;
    unknowns = r.unknowns;
  }

(* Rewrite the final AS of a path (used when the origin AS was symbolized
   and the solver picked a new value). *)
let set_origin_as path asn =
  let rec go = function
    | [] -> [ Asn.Path.Seq [ asn ] ]
    | [ Asn.Path.Seq s ] -> begin
      match List.rev s with
      | _ :: rest -> [ Asn.Path.Seq (List.rev (asn :: rest)) ]
      | [] -> [ Asn.Path.Seq [ asn ] ]
    end
    | [ Asn.Path.Set _ ] as last -> last @ [ Asn.Path.Seq [ asn ] ]
    | seg :: rest -> seg :: go rest
  in
  go path

let prefix_of t =
  let len = min 32 (Cval.to_int t.net_len) in
  Prefix.make (Cval.to_int t.net_addr land 0xFFFFFFFF) len

let to_route t =
  let prefix = prefix_of t in
  let origin =
    match Attr.origin_of_code (Cval.to_int t.origin) with
    | Some o -> o
    | None -> Attr.Incomplete
  in
  let as_path =
    let current = Asn.Path.origin_as t.as_path in
    let chosen = Cval.to_int t.origin_as in
    (* 0 is [of_route]'s encoding of "no origin AS", not an origin to
       graft on: an empty path round-trips, and so does one a filter
       prepended to since. Only the explorer (a symbolic [origin_as])
       may pick 0 for a path that has an origin. *)
    let no_origin = chosen = 0 && (current = None || not (Cval.is_symbolic t.origin_as)) in
    if current = Some chosen || no_origin then t.as_path else set_origin_as t.as_path chosen
  in
  let route =
    Route.make ~origin
      ~med:(if t.has_med then Some (Cval.to_int t.med) else None)
      ~local_pref:(if t.has_local_pref then Some (Cval.to_int t.local_pref) else None)
      ~communities:t.communities ~atomic_aggregate:t.atomic_aggregate
      ~aggregator:t.aggregator ~unknowns:t.unknowns ~as_path
      ~next_hop:(Cval.to_int t.next_hop) ()
  in
  (prefix, route)

let with_local_pref t v = { t with local_pref = v; has_local_pref = true }
let with_med t v = { t with med = v; has_med = true }

let add_community t c =
  if List.mem c t.communities then t else { t with communities = t.communities @ [ c ] }

let remove_community t c = { t with communities = List.filter (fun x -> x <> c) t.communities }

let prepend_as t asn = { t with as_path = Asn.Path.prepend asn t.as_path }

let pp ppf t =
  let prefix = prefix_of t in
  Format.fprintf ppf "%a path=[%a] lp=%a med=%a" Prefix.pp prefix Asn.Path.pp t.as_path
    Cval.pp t.local_pref Cval.pp t.med
