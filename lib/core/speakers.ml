open Dice_inet
open Dice_bgp

(* The one concrete-implementation reference the core is allowed. *)
module Router = Dice_bgp.Router
module Qrouter = Dice_bgp2.Qrouter
module Xrouter = Dice_bgp3.Xrouter

(* A linear image shifts every later byte on any change, so its patch
   against any base is one write of the whole image. *)
let whole_image img = (Bytes.length img, [ (0, img) ])

module Bird = struct
  type t = Router.t

  let id = "bird"
  let dialect : (module Dialect.S) = (module Bird_dialect)
  let create (r : Speaker.realization) = Router.create r.Speaker.config

  let msgs_of outputs =
    List.filter_map
      (function Router.To_peer (dst, m) -> Some (dst, m) | _ -> None)
      outputs

  let establish t ~peer =
    match Config_types.find_peer (Router.config t) peer with
    | None ->
      invalid_arg (Printf.sprintf "Speakers.Bird: unknown peer %s" (Ipv4.to_string peer))
    | Some pcfg ->
      let remote_as = pcfg.Config_types.remote_as in
      ignore (Router.handle_event t ~peer Fsm.Manual_start);
      ignore (Router.handle_event t ~peer Fsm.Tcp_connected);
      ignore
        (Router.handle_msg t ~peer
           (Msg.Open
              {
                Msg.version = 4;
                my_as = remote_as land 0xFFFF;
                hold_time = 90;
                bgp_id = peer;
                capabilities = [ Msg.Cap_as4 remote_as ];
              }));
      ignore (Router.handle_msg t ~peer Msg.Keepalive)

  let feed ?ctx t ~peer msg = msgs_of (Router.handle_msg ?ctx t ~peer msg)

  let import_concolic = Router.import_concolic

  let loc_rib = Router.loc_rib
  let best_route = Router.best_route

  let learned_from t ~peer prefix =
    match Router.adj_rib_in t peer with
    | Some adj -> Rib.Adj.find_opt prefix adj <> None
    | None -> false

  let updates_processed = Router.updates_processed

  let snapshot = Router.snapshot
  let snapshot_patch = Router.snapshot_patch

  let restore (r : Speaker.realization) image = Router.restore r.Speaker.config image
  let clone = Router.clone
end

module Quagga = struct
  type t = Qrouter.t

  let id = "quagga"
  let dialect : (module Dialect.S) = (module Dice_bgp2.Quagga_dialect)
  let create (r : Speaker.realization) = Qrouter.create r.Speaker.config
  let establish t ~peer = Qrouter.establish t ~peer
  let feed ?ctx t ~peer msg = Qrouter.feed ?ctx t ~peer msg

  let import_concolic = Qrouter.import_concolic

  let loc_rib = Qrouter.table
  let best_route = Qrouter.best_route
  let learned_from t ~peer prefix = Qrouter.learned_from t ~peer prefix
  let updates_processed = Qrouter.updates_processed

  let snapshot = Qrouter.snapshot
  let snapshot_patch ~base:_ t = whole_image (snapshot t)

  let restore (r : Speaker.realization) image = Qrouter.restore r.Speaker.config image
  let clone = Qrouter.clone
end

module Xorp = struct
  type t = Xrouter.t

  let id = "xorp"
  let dialect : (module Dialect.S) = (module Dice_bgp3.Xorp_dialect)
  let create (r : Speaker.realization) = Xrouter.create r.Speaker.config
  let establish t ~peer = Xrouter.establish t ~peer
  let feed ?ctx t ~peer msg = Xrouter.feed ?ctx t ~peer msg

  let import_concolic = Xrouter.import_concolic

  let loc_rib = Xrouter.table
  let best_route = Xrouter.best_route
  let learned_from t ~peer prefix = Xrouter.learned_from t ~peer prefix
  let updates_processed = Xrouter.updates_processed

  let snapshot = Xrouter.snapshot
  let snapshot_patch ~base:_ t = whole_image (snapshot t)

  let restore (r : Speaker.realization) image = Xrouter.restore r.Speaker.config image
  let clone = Xrouter.clone
end

(* Pack an already-built router: the realization records its concrete
   config as the source (nothing was translated). *)
let concrete (module D : Dialect.S) config =
  { Speaker.source = Speaker.Config config; dialect = D.name; rendered = None; config }

let bird r =
  Speaker.pack (module Bird : Speaker.S with type t = Router.t)
    (concrete (module Bird_dialect) (Router.config r))
    r

let quagga q =
  Speaker.pack (module Quagga : Speaker.S with type t = Qrouter.t)
    (concrete (module Dice_bgp2.Quagga_dialect) (Qrouter.config q))
    q

let xorp x =
  Speaker.pack (module Xorp : Speaker.S with type t = Xrouter.t)
    (concrete (module Dice_bgp3.Xorp_dialect) (Xrouter.config x))
    x

let names = [ "bird"; "quagga"; "xorp" ]

let dialect name : (module Dialect.S) option =
  match name with
  | "bird" -> Some (module Bird_dialect)
  | "quagga" -> Some (module Dice_bgp2.Quagga_dialect)
  | "xorp" -> Some (module Dice_bgp3.Xorp_dialect)
  | _ -> None

let create name source =
  match name with
  | "bird" -> Some (Speaker.create (module Bird : Speaker.S with type t = Router.t) source)
  | "quagga" ->
    Some (Speaker.create (module Quagga : Speaker.S with type t = Qrouter.t) source)
  | "xorp" -> Some (Speaker.create (module Xorp : Speaker.S with type t = Xrouter.t) source)
  | _ -> None

let create_exn name source =
  match create name source with
  | Some sp -> sp
  | None ->
    invalid_arg
      (Printf.sprintf "unknown speaker implementation: %s (known: %s)" name
         (String.concat ", " names))
