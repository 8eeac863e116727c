open Dice_inet
open Dice_bgp
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

(* Zebra-style state: hash tables keyed by prefix, one bucket per table.
   No persistent structures, no slot bookkeeping — snapshots serialize
   eagerly (see the Checkpointing section). *)
type peer_st = {
  pcfg : Config_types.peer_cfg;
  mutable up : bool;
  rin : (Prefix.t, Route.t) Hashtbl.t;
  rout : (Prefix.t, Route.t) Hashtbl.t;
}

type t = {
  cfg : Config_types.t;
  peers : (Ipv4.t, peer_st) Hashtbl.t;
  main : (Prefix.t, Rib.Loc.entry) Hashtbl.t;
  statics : (Prefix.t * Rib.Loc.entry) list;
  mutable updates : int;
}

let config t = t.cfg
let updates_processed t = t.updates

let create cfg =
  let statics = Pipeline.statics cfg in
  let t =
    { cfg; peers = Hashtbl.create 8; main = Hashtbl.create 64; statics; updates = 0 }
  in
  List.iter (fun (p, e) -> Hashtbl.replace t.main p e) statics;
  List.iter
    (fun pcfg ->
      Hashtbl.replace t.peers pcfg.Config_types.neighbor
        { pcfg; up = false; rin = Hashtbl.create 16; rout = Hashtbl.create 16 })
    cfg.Config_types.peers;
  t

let peer_exn t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Qrouter: unknown peer %s" (Ipv4.to_string addr))

(* ------------------------------------------------------------------ *)
(* Decision process — the heterogeneity lives here.                    *)
(*                                                                     *)
(* Order: local-pref, locally-originated, ORIGIN, AS-path length, MED  *)
(* (always comparable, missing = worst), eBGP over iBGP, peer address, *)
(* router id. Relative to Dice_bgp.Decision: ORIGIN and path length    *)
(* are swapped, the final two tie-breaks are swapped, and the MED      *)
(* quirks are the opposite defaults.                                   *)
(* ------------------------------------------------------------------ *)

let missing_med_worst = 0xFFFF_FFFF

let qcompare ((ra, sa) : Route.t * Route.src) ((rb, sb) : Route.t * Route.src) =
  let lp r = Option.value r.Route.local_pref ~default:100 in
  let c = Int.compare (lp rb) (lp ra) in
  if c <> 0 then c
  else begin
    let c = Bool.compare (sb = Route.static_src) (sa = Route.static_src) in
    if c <> 0 then c
    else begin
      let c = Int.compare (Attr.origin_code ra.Route.origin) (Attr.origin_code rb.Route.origin) in
      if c <> 0 then c
      else begin
        let c =
          Int.compare (Asn.Path.length ra.Route.as_path) (Asn.Path.length rb.Route.as_path)
        in
        if c <> 0 then c
        else begin
          let med r = Option.value r.Route.med ~default:missing_med_worst in
          let c = Int.compare (med ra) (med rb) in
          if c <> 0 then c
          else begin
            let c = Bool.compare sb.Route.ebgp sa.Route.ebgp in
            if c <> 0 then c
            else begin
              let c = Int.compare sa.Route.peer_addr sb.Route.peer_addr in
              if c <> 0 then c
              else Int.compare sa.Route.peer_bgp_id sb.Route.peer_bgp_id
            end
          end
        end
      end
    end
  end

let candidates t prefix =
  let from_static =
    match List.assoc_opt prefix t.statics with
    | Some e -> [ (e.Rib.Loc.route, e.Rib.Loc.src) ]
    | None -> []
  in
  Hashtbl.fold
    (fun _ p acc ->
      match Hashtbl.find_opt p.rin prefix with
      | Some r -> (r, Pipeline.src_of_peer ~local_as:t.cfg.Config_types.local_as p.pcfg) :: acc
      | None -> acc)
    t.peers from_static

let decide t prefix =
  match List.sort qcompare (candidates t prefix) with
  | (route, src) :: _ -> Some { Rib.Loc.route; src }
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Export path: the shared BGP semantics over the hash-table RibOut.   *)
(* ------------------------------------------------------------------ *)

let export_to ~ctx t (dst : peer_st) prefix best =
  if not dst.up then []
  else begin
    let previously = Hashtbl.find_opt dst.rout prefix in
    match Pipeline.export ~ctx t.cfg dst.pcfg prefix ~previously best with
    | None -> []
    | Some (now, msg) ->
      (match now with
      | Some r -> Hashtbl.replace dst.rout prefix r
      | None -> Hashtbl.remove dst.rout prefix);
      [ msg ]
  end

let export_all ~ctx t prefix best =
  Hashtbl.fold (fun _ dst acc -> acc @ export_to ~ctx t dst prefix best) t.peers []

let reconsider ~ctx t prefix =
  let old_best = Hashtbl.find_opt t.main prefix in
  let new_best = decide t prefix in
  if Pipeline.best_changed old_best new_best then begin
    (match new_best with
    | Some e -> Hashtbl.replace t.main prefix e
    | None -> Hashtbl.remove t.main prefix);
    export_all ~ctx t prefix new_best
  end
  else []

(* ------------------------------------------------------------------ *)
(* Sessions: administratively established, no FSM.                     *)
(* ------------------------------------------------------------------ *)

let establish t ~peer =
  let p = peer_exn t peer in
  if not p.up then begin
    p.up <- true;
    (* Prime the Adj-RIB-Out as an initial exchange would; the messages
       themselves are the session-establishment traffic the core never
       forwards, so they are not returned. *)
    Hashtbl.iter
      (fun prefix entry -> ignore (export_to ~ctx:Engine.null t p prefix (Some entry)))
      t.main
  end

let session_clear ~ctx t (p : peer_st) =
  let prefixes = Hashtbl.fold (fun prefix _ acc -> prefix :: acc) p.rin [] in
  p.up <- false;
  Hashtbl.reset p.rin;
  Hashtbl.reset p.rout;
  List.concat_map (fun prefix -> reconsider ~ctx t prefix) prefixes

(* ------------------------------------------------------------------ *)
(* Import path                                                         *)
(* ------------------------------------------------------------------ *)

let import_concolic ~ctx t ~peer croute =
  let p = peer_exn t peer in
  t.updates <- t.updates + 1;
  (* No concolic pre-decision here: past the shared policy interpreter
     the pipeline runs concretely, as in a federated peer DiCE cannot
     instrument. *)
  Pipeline.import ~ctx t.cfg p.pcfg croute ~best:(Hashtbl.find_opt t.main)
    ~probe:(fun _ _ -> ())
    ~learn:(fun prefix route ->
      Hashtbl.replace p.rin prefix route;
      reconsider ~ctx t prefix)

let process_update ~ctx t ~peer u =
  let p = peer_exn t peer in
  Pipeline.process_update u
    ~import:(import_concolic ~ctx t ~peer)
    ~withdraw:(fun prefix ->
      if not (Hashtbl.mem p.rin prefix) then []
      else begin
        Hashtbl.remove p.rin prefix;
        reconsider ~ctx t prefix
      end)
    ~tick:(fun () -> t.updates <- t.updates + 1)

let feed ?(ctx = Engine.null) t ~peer msg =
  let p = peer_exn t peer in
  match msg with
  | Msg.Update u -> if p.up then process_update ~ctx t ~peer u else []
  | Msg.Notification _ ->
    t.updates <- t.updates + 1;
    session_clear ~ctx t p
  | Msg.Open _ | Msg.Keepalive -> []

(* ------------------------------------------------------------------ *)
(* State views                                                         *)
(* ------------------------------------------------------------------ *)

let table t = Hashtbl.fold Rib.Loc.set t.main Rib.Loc.empty
let best_route t prefix = Hashtbl.find_opt t.main prefix

let learned_from t ~peer prefix =
  match Hashtbl.find_opt t.peers peer with
  | Some p -> Hashtbl.mem p.rin prefix
  | None -> false

(* ------------------------------------------------------------------ *)
(* Checkpointing: an eager linear image. Layout ("QRTRSNP2" magic):    *)
(*   u32 updates                                                       *)
(*   u16 #peers, each (sorted by address):                             *)
(*     u32 address | u8 up | u32 #rin entries | u32 #rout entries      *)
(*     then each entry: prefix (u8 len, u32 network) | u16 attr-bytes  *)
(*     | encoded path attributes                                       *)
(*   u32 #main-table entries, each: prefix | attrs | u32 src address   *)
(*     | u32 src ASN | u32 src router id | u8 ebgp                     *)
(* ------------------------------------------------------------------ *)

let magic = "QRTRSNP2"

let sorted_entries tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  let b = Wbuf.create ~capacity:1024 () in
  Wbuf.string b magic;
  Wbuf.u32 b t.updates;
  let peers = sorted_entries t.peers in
  Wbuf.u16 b (List.length peers);
  List.iter
    (fun (addr, p) ->
      Wbuf.u32 b addr;
      Wbuf.u8 b (if p.up then 1 else 0);
      let put_adj tbl =
        let entries = sorted_entries tbl in
        Wbuf.u32 b (List.length entries);
        List.iter
          (fun (prefix, route) ->
            Pipeline.put_prefix b prefix;
            Pipeline.put_route b route)
          entries
      in
      put_adj p.rin;
      put_adj p.rout)
    peers;
  let entries = sorted_entries t.main in
  Wbuf.u32 b (List.length entries);
  List.iter
    (fun (prefix, (e : Rib.Loc.entry)) ->
      Pipeline.put_prefix b prefix;
      Pipeline.put_route b e.Rib.Loc.route;
      Pipeline.put_src b e.Rib.Loc.src)
    entries;
  Wbuf.contents b

let restore cfg image =
  try
    let r = Rbuf.of_bytes image in
    let m = Bytes.to_string (Rbuf.take ~what:"magic" r 8) in
    if m <> magic then invalid_arg "Qrouter.restore: not a Qrouter image";
    let t = create cfg in
    Hashtbl.reset t.main;
    t.updates <- Rbuf.u32 ~what:"updates" r;
    let n_peers = Rbuf.u16 ~what:"peer count" r in
    for _ = 1 to n_peers do
      let addr = Rbuf.u32 ~what:"peer address" r in
      let p =
        match Hashtbl.find_opt t.peers addr with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Qrouter.restore: image peer %s absent from config"
               (Ipv4.to_string addr))
      in
      p.up <- Rbuf.u8 ~what:"session flag" r = 1;
      let get_adj tbl =
        let n = Rbuf.u32 ~what:"adj entry count" r in
        for _ = 1 to n do
          let prefix = Pipeline.get_prefix r in
          Hashtbl.replace tbl prefix (Pipeline.get_route r)
        done
      in
      get_adj p.rin;
      get_adj p.rout
    done;
    let n_main = Rbuf.u32 ~what:"table entry count" r in
    for _ = 1 to n_main do
      let prefix = Pipeline.get_prefix r in
      let route = Pipeline.get_route r in
      Hashtbl.replace t.main prefix { Rib.Loc.route; src = Pipeline.get_src r }
    done;
    t
  with Rbuf.Truncated what -> invalid_arg ("Qrouter.restore: truncated image: " ^ what)

(* An independent in-process copy. Zebra-style state is mutable hash
   tables, so — true to the heterogeneity — there is nothing persistent
   to share: every bucket is copied eagerly. Still far cheaper than
   snapshot + parse (no serialization, route values are shared). It only
   reads [t] — [Hashtbl.to_seq] and [Hashtbl.copy], unlike [Hashtbl.iter],
   leave the traversal flag alone — because worker domains clone one
   shared checkpoint at once. *)
let clone t =
  let peers = Hashtbl.create (Hashtbl.length t.peers) in
  Seq.iter
    (fun (addr, p) ->
      Hashtbl.replace peers addr
        { pcfg = p.pcfg; up = p.up; rin = Hashtbl.copy p.rin; rout = Hashtbl.copy p.rout })
    (Hashtbl.to_seq t.peers);
  { cfg = t.cfg; peers; main = Hashtbl.copy t.main; statics = t.statics; updates = t.updates }
