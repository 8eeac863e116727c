open Dice_inet
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

let src_of_peer ~local_as (pcfg : Config_types.peer_cfg) =
  {
    Route.peer_addr = pcfg.Config_types.neighbor;
    peer_asn = pcfg.Config_types.remote_as;
    peer_bgp_id = pcfg.Config_types.neighbor (* stand-in until OPEN is seen *);
    ebgp = pcfg.Config_types.remote_as <> local_as;
  }

let statics (cfg : Config_types.t) =
  List.map
    (fun (p, via) ->
      ( p,
        {
          Rib.Loc.route =
            Route.make ~origin:Attr.Igp ~as_path:Asn.Path.empty ~next_hop:via
              ~local_pref:(Some 100) ();
          src = Route.static_src;
        } ))
    cfg.Config_types.static_routes

let best_changed (old_best : Rib.Loc.entry option) (new_best : Rib.Loc.entry option) =
  match (old_best, new_best) with
  | None, None -> false
  | Some a, Some b -> not (Route.equal a.Rib.Loc.route b.Rib.Loc.route && a.src = b.src)
  | None, Some _ | Some _, None -> true

(* ------------------------------------------------------------------ *)
(* Import                                                              *)
(* ------------------------------------------------------------------ *)

let admit ~ctx (cfg : Config_types.t) (pcfg : Config_types.peer_cfg) croute =
  let local_as = cfg.Config_types.local_as in
  (* AS-loop detection (concrete: the path is not symbolized) *)
  if Asn.Path.contains croute.Croute.as_path local_as then None
  else begin
    match
      Filter_interp.run_policy ctx ~source_as:pcfg.Config_types.remote_as ~local_as
        pcfg.Config_types.import_policy croute
    with
    | Filter_interp.Rejected -> None
    | Filter_interp.Accepted cr ->
      if cr.Croute.has_local_pref then Some cr
      else Some (Croute.with_local_pref cr (Cval.concrete ~width:32 100L))
  end

let import ~ctx cfg (pcfg : Config_types.peer_cfg) ~best ~probe ~learn croute =
  match admit ~ctx cfg pcfg croute with
  | None ->
    let prefix = Croute.prefix_of croute in
    {
      Import.prefix;
      accepted = false;
      installed = false;
      route = None;
      previous_best = best prefix;
      outputs = [];
    }
  | Some cr ->
    let prefix, route = Croute.to_route cr in
    let previous_best = best prefix in
    probe cr previous_best;
    let outputs = learn prefix route in
    let installed =
      match best prefix with
      | Some e ->
        e.Rib.Loc.src.Route.peer_addr = pcfg.Config_types.neighbor
        && Route.equal e.Rib.Loc.route route
      | None -> false
    in
    { Import.prefix; accepted = true; installed; route = Some route; previous_best; outputs }

let process_update ~import ~withdraw ~tick (u : Msg.update) =
  let outs = ref [] in
  let withdraw prefix = outs := !outs @ withdraw prefix in
  List.iter withdraw u.Msg.withdrawn;
  if u.Msg.nlri <> [] then begin
    match Route.of_attrs u.Msg.attrs with
    | Error _ -> List.iter withdraw u.Msg.nlri (* treat-as-withdraw (RFC 7606 spirit) *)
    | Ok route ->
      List.iter
        (fun prefix ->
          let outcome = import (Croute.of_route prefix route) in
          outs := !outs @ outcome.Import.outputs;
          (* policy-rejected: any previous version must go *)
          if not outcome.Import.accepted then withdraw prefix)
        u.Msg.nlri
  end
  else if u.Msg.withdrawn <> [] then tick ();
  !outs

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let advert ~ctx (cfg : Config_types.t) (dst : Config_types.peer_cfg) prefix
    { Rib.Loc.route; src } =
  let local_as = cfg.Config_types.local_as in
  let ebgp = dst.Config_types.remote_as <> local_as in
  if
    src.Route.peer_addr = dst.Config_types.neighbor (* split horizon *)
    || (ebgp && Route.has_community route Community.no_export)
    || Route.has_community route Community.no_advertise
  then None
  else begin
    let view =
      if ebgp then
        {
          route with
          Route.as_path = Asn.Path.prepend local_as route.Route.as_path;
          next_hop = cfg.Config_types.router_id;
          local_pref = None;
          med = None;
        }
      else route
    in
    (* only a filter needs the route as concolic values; [Croute.of_route]
       and [Croute.to_route] round-trip a route unchanged *)
    match dst.Config_types.export_policy with
    | Config_types.All -> Some view
    | Config_types.Nothing -> None
    | Config_types.Use_filter f -> (
      match
        Filter_interp.run ctx ~source_as:src.Route.peer_asn ~local_as f
          (Croute.of_route prefix view)
      with
      | Filter_interp.Accepted cr -> Some (snd (Croute.to_route cr))
      | Filter_interp.Rejected -> None)
  end

let export ~ctx cfg (dst : Config_types.peer_cfg) prefix ~previously best =
  let update u = (dst.Config_types.neighbor, Msg.Update u) in
  match (previously, Option.bind best (advert ~ctx cfg dst prefix)) with
  | None, None -> None
  | Some old, Some r when Route.equal old r -> None
  | _, (Some r as now) ->
    Some (now, update { withdrawn = []; attrs = Route.to_attrs r; nlri = [ prefix ] })
  | Some _, None -> Some (None, update { withdrawn = [ prefix ]; attrs = []; nlri = [] })

(* ------------------------------------------------------------------ *)
(* Image codecs                                                        *)
(* ------------------------------------------------------------------ *)

let put_prefix w p =
  Wbuf.u8 w (Prefix.len p);
  Wbuf.u32 w (Prefix.network p)

let get_prefix r =
  let len = Rbuf.u8 ~what:"prefix length" r in
  let network = Rbuf.u32 ~what:"prefix network" r in
  Prefix.make network len

let put_route w route =
  let len_at = Wbuf.mark w in
  Wbuf.u16 w 0;
  Attr.encode_list ~as4:true w (Route.to_attrs route);
  Wbuf.patch_u16 w len_at (Wbuf.length w - len_at - 2)

let get_route r =
  let len = Rbuf.u16 ~what:"route length" r in
  let bad e = invalid_arg ("snapshot image: bad route: " ^ Attr.error_to_string e) in
  match Attr.decode_list ~as4:true (Rbuf.sub r len) with
  | Error e -> bad e
  | Ok attrs -> ( match Route.of_attrs attrs with Error e -> bad e | Ok route -> route)

let put_src w (src : Route.src) =
  Wbuf.u32 w src.Route.peer_addr;
  Wbuf.u32 w src.Route.peer_asn;
  Wbuf.u32 w src.Route.peer_bgp_id;
  Wbuf.u8 w (if src.Route.ebgp then 1 else 0)

let get_src r =
  let peer_addr = Rbuf.u32 ~what:"src address" r in
  let peer_asn = Rbuf.u32 ~what:"src asn" r in
  let peer_bgp_id = Rbuf.u32 ~what:"src router id" r in
  let ebgp = Rbuf.u8 ~what:"src ebgp flag" r = 1 in
  { Route.peer_addr; peer_asn; peer_bgp_id; ebgp }
