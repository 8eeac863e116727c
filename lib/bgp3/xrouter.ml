open Dice_inet
open Dice_bgp
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

(* XORP-style state: one table per stage (RibIn/RibOut per peer, plus
   the main table), plumbed together by the decision process. The
   tables are the shared persistent tries, whose iteration is in prefix
   order, so every serialization is canonical without a sort pass. *)
type peer_st = {
  pcfg : Config_types.peer_cfg;
  mutable up : bool;
  mutable rin : Rib.Adj.t;
  mutable rout : Rib.Adj.t option;
      (* [None] until the first decision change must reach this peer —
         the lazily materialized Adj-RIB-Out *)
}

type t = {
  cfg : Config_types.t;
  peers : (Ipv4.t * peer_st) list;  (* sorted by address, fixed at create *)
  mutable main : Rib.Loc.t;
  statics : (Prefix.t * Rib.Loc.entry) list;
  mutable updates : int;
}

let config t = t.cfg
let updates_processed t = t.updates

let create cfg =
  let statics = Pipeline.statics cfg in
  let peers =
    List.map
      (fun pcfg ->
        (pcfg.Config_types.neighbor, { pcfg; up = false; rin = Rib.Adj.empty; rout = None }))
      cfg.Config_types.peers
    |> List.sort (fun (a, _) (b, _) -> Ipv4.compare a b)
  in
  let main = List.fold_left (fun acc (p, e) -> Rib.Loc.set p e acc) Rib.Loc.empty statics in
  { cfg; peers; main; statics; updates = 0 }

let peer_exn t addr =
  match List.assoc_opt addr t.peers with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Xrouter: unknown peer %s" (Ipv4.to_string addr))

(* ------------------------------------------------------------------ *)
(* Decision process — the XORP flavor.                                 *)
(*                                                                     *)
(* Candidates are first grouped by neighboring AS and only the best    *)
(* candidate of each group survives (deterministic MED: the outcome    *)
(* never depends on arrival order; missing MED counts as 0, the BEST — *)
(* the opposite default of the Quagga flavor). Group survivors then    *)
(* compete without MED: local-pref, locally-originated, path length,   *)
(* ORIGIN, eBGP-over-iBGP, IGP cost to the next hop (modeled as the    *)
(* numeric next-hop address: lower is closer), and only then the peer  *)
(* tie-breaks (router id, then address) that BIRD and Quagga reach     *)
(* directly.                                                           *)
(* ------------------------------------------------------------------ *)

let missing_med_best = 0

let residual ~with_med ((ra, sa) : Route.t * Route.src) ((rb, sb) : Route.t * Route.src) =
  let lp r = Option.value r.Route.local_pref ~default:100 in
  let c = Int.compare (lp rb) (lp ra) in
  if c <> 0 then c
  else begin
    let c = Bool.compare (sb = Route.static_src) (sa = Route.static_src) in
    if c <> 0 then c
    else begin
      let c =
        Int.compare (Asn.Path.length ra.Route.as_path) (Asn.Path.length rb.Route.as_path)
      in
      if c <> 0 then c
      else begin
        let c =
          Int.compare (Attr.origin_code ra.Route.origin) (Attr.origin_code rb.Route.origin)
        in
        if c <> 0 then c
        else begin
          let med r = Option.value r.Route.med ~default:missing_med_best in
          let c = if with_med then Int.compare (med ra) (med rb) else 0 in
          if c <> 0 then c
          else begin
            let c = Bool.compare sb.Route.ebgp sa.Route.ebgp in
            if c <> 0 then c
            else begin
              let c = Ipv4.compare ra.Route.next_hop rb.Route.next_hop in
              if c <> 0 then c
              else begin
                let c = Ipv4.compare sa.Route.peer_bgp_id sb.Route.peer_bgp_id in
                if c <> 0 then c else Ipv4.compare sa.Route.peer_addr sb.Route.peer_addr
              end
            end
          end
        end
      end
    end
  end

let med_group ((r, s) : Route.t * Route.src) =
  if s = Route.static_src then -1
  else Option.value (Route.neighbor_as r) ~default:(-1)

let xcompare_group = residual ~with_med:true
let xcompare_winners = residual ~with_med:false

let candidates t prefix =
  let from_static =
    match List.assoc_opt prefix t.statics with
    | Some e -> [ (e.Rib.Loc.route, e.Rib.Loc.src) ]
    | None -> []
  in
  List.fold_left
    (fun acc (_, p) ->
      match Rib.Adj.find_opt prefix p.rin with
      | Some r -> (r, Pipeline.src_of_peer ~local_as:t.cfg.Config_types.local_as p.pcfg) :: acc
      | None -> acc)
    from_static t.peers

let decide t prefix =
  let cands = candidates t prefix in
  (* deterministic-MED grouping: one survivor per neighboring AS *)
  let groups = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let g = med_group c in
      match Hashtbl.find_opt groups g with
      | Some best when xcompare_group best c <= 0 -> ()
      | Some _ | None -> Hashtbl.replace groups g c)
    cands;
  let winners = Hashtbl.fold (fun _ c acc -> c :: acc) groups [] in
  match List.sort xcompare_winners winners with
  | (route, src) :: _ -> Some { Rib.Loc.route; src }
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Export path: the shared BGP semantics over a lazily materialized    *)
(* RibOut.                                                             *)
(* ------------------------------------------------------------------ *)

(* The lazy quirk: the first time a decision change must reach [p], the
   whole RibOut materializes from the main table as it stood before the
   change — XORP's background RibOut plumbing, collapsed to the moment
   it becomes observable. The materialized entries were never emitted
   as messages: they stand for the initial table advertisement, which
   is session-establishment traffic the narrow interface never sees. *)
let ensure_rout t (p : peer_st) =
  if p.up && p.rout = None then begin
    p.rout <-
      Some
        (Rib.Loc.fold
           (fun prefix e acc ->
             match Pipeline.advert ~ctx:Engine.null t.cfg p.pcfg prefix e with
             | Some r -> Rib.Adj.add prefix r acc
             | None -> acc)
           t.main Rib.Adj.empty)
  end

let export_to ~ctx t (p : peer_st) prefix best =
  if not p.up then []
  else begin
    let rout = Option.value p.rout ~default:Rib.Adj.empty in
    let previously = Rib.Adj.find_opt prefix rout in
    match Pipeline.export ~ctx t.cfg p.pcfg prefix ~previously best with
    | None -> []
    | Some (now, msg) ->
      p.rout <-
        Some
          (match now with
          | Some r -> Rib.Adj.add prefix r rout
          | None -> Rib.Adj.remove prefix rout);
      [ msg ]
  end

(* Decide [prefix] again; [old_best] is its installed best. Returns the
   traffic and the best now installed. *)
let reconsider ~ctx t prefix old_best =
  let new_best = decide t prefix in
  if Pipeline.best_changed old_best new_best then begin
    (* materialize pending RibOuts against the pre-change table, then
       install and push the diff *)
    List.iter (fun (_, p) -> ensure_rout t p) t.peers;
    (match new_best with
    | Some e -> t.main <- Rib.Loc.set prefix e t.main
    | None -> t.main <- Rib.Loc.remove prefix t.main);
    (List.concat_map (fun (_, p) -> export_to ~ctx t p prefix new_best) t.peers, new_best)
  end
  else ([], old_best)

(* ------------------------------------------------------------------ *)
(* Sessions: administratively established, no FSM.                     *)
(* ------------------------------------------------------------------ *)

let establish t ~peer =
  let p = peer_exn t peer in
  if not p.up then p.up <- true (* RibOut stays unmaterialized: the lazy quirk *)

let session_clear ~ctx t (p : peer_st) =
  let prefixes = Rib.Adj.fold (fun prefix _ acc -> prefix :: acc) p.rin [] in
  p.up <- false;
  p.rin <- Rib.Adj.empty;
  p.rout <- None;
  List.concat_map
    (fun prefix -> fst (reconsider ~ctx t prefix (Rib.Loc.find_opt prefix t.main)))
    prefixes

(* ------------------------------------------------------------------ *)
(* Import path                                                         *)
(* ------------------------------------------------------------------ *)

let import_concolic ~ctx t ~peer croute =
  let p = peer_exn t peer in
  t.updates <- t.updates + 1;
  (* past the shared policy interpreter the pipeline runs concretely,
     as in a federated peer DiCE cannot instrument *)
  Pipeline.import ~ctx t.cfg p.pcfg croute
    ~best:(fun prefix -> Rib.Loc.find_opt prefix t.main)
    ~probe:(fun _ _ -> ())
    ~learn:(fun prefix route old_best ->
      p.rin <- Rib.Adj.add prefix route p.rin;
      reconsider ~ctx t prefix old_best)

let process_update ~ctx t ~peer u =
  let p = peer_exn t peer in
  Pipeline.process_update u
    ~import:(import_concolic ~ctx t ~peer)
    ~withdraw:(fun prefix ->
      if Rib.Adj.find_opt prefix p.rin = None then []
      else begin
        p.rin <- Rib.Adj.remove prefix p.rin;
        fst (reconsider ~ctx t prefix (Rib.Loc.find_opt prefix t.main))
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

let table t = t.main
let best_route t prefix = Rib.Loc.find_opt prefix t.main

let learned_from t ~peer prefix =
  match List.assoc_opt peer t.peers with
  | Some p -> Rib.Adj.find_opt prefix p.rin <> None
  | None -> false

(* ------------------------------------------------------------------ *)
(* Checkpointing: an eager linear image ("XRTRSNP2" magic), the same   *)
(* framing conventions as the Quagga flavor's but a mutually alien     *)
(* layout:                                                             *)
(*   u32 updates                                                       *)
(*   u16 #peers, each (sorted by address):                             *)
(*     u32 address | u8 flags (bit0 up, bit1 RibOut materialized)      *)
(*     u32 #rin entries, each: prefix (u8 len, u32 network)            *)
(*       | u16 attr-bytes | encoded path attributes                    *)
(*     if materialized: u32 #rout entries, same shape                  *)
(*   u32 #main-table entries, each: prefix | attrs | u32 src address   *)
(*     | u32 src ASN | u32 src router id | u8 ebgp                     *)
(* ------------------------------------------------------------------ *)

let magic = "XRTRSNP2"

let put_adj b adj =
  Wbuf.u32 b (Rib.Adj.cardinal adj);
  Rib.Adj.fold
    (fun prefix route () ->
      Pipeline.put_prefix b prefix;
      Pipeline.put_route b route)
    adj ()

let get_adj r =
  let n = Rbuf.u32 ~what:"adj entry count" r in
  let adj = ref Rib.Adj.empty in
  for _ = 1 to n do
    let prefix = Pipeline.get_prefix r in
    adj := Rib.Adj.add prefix (Pipeline.get_route r) !adj
  done;
  !adj

let snapshot t =
  let b = Wbuf.create ~capacity:1024 () in
  Wbuf.string b magic;
  Wbuf.u32 b t.updates;
  Wbuf.u16 b (List.length t.peers);
  List.iter
    (fun (addr, p) ->
      Wbuf.u32 b addr;
      Wbuf.u8 b ((if p.up then 1 else 0) lor (if p.rout <> None then 2 else 0));
      put_adj b p.rin;
      match p.rout with Some rout -> put_adj b rout | None -> ())
    t.peers;
  Wbuf.u32 b (Rib.Loc.cardinal t.main);
  Rib.Loc.fold
    (fun prefix (e : Rib.Loc.entry) () ->
      Pipeline.put_prefix b prefix;
      Pipeline.put_route b e.Rib.Loc.route;
      Pipeline.put_src b e.Rib.Loc.src)
    t.main ();
  Wbuf.contents b

let restore cfg image =
  try
    let r = Rbuf.of_bytes image in
    let m = Bytes.to_string (Rbuf.take ~what:"magic" r 8) in
    if m <> magic then invalid_arg "Xrouter.restore: not an Xrouter image";
    let t = create cfg in
    t.updates <- Rbuf.u32 ~what:"updates" r;
    let n_peers = Rbuf.u16 ~what:"peer count" r in
    for _ = 1 to n_peers do
      let addr = Rbuf.u32 ~what:"peer address" r in
      let p =
        match List.assoc_opt addr t.peers with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Xrouter.restore: image peer %s absent from config"
               (Ipv4.to_string addr))
      in
      let flags = Rbuf.u8 ~what:"peer flags" r in
      p.up <- flags land 1 = 1;
      p.rin <- get_adj r;
      p.rout <- (if flags land 2 = 2 then Some (get_adj r) else None)
    done;
    let n_main = Rbuf.u32 ~what:"table entry count" r in
    t.main <- Rib.Loc.empty;
    for _ = 1 to n_main do
      let prefix = Pipeline.get_prefix r in
      let route = Pipeline.get_route r in
      t.main <- Rib.Loc.set prefix { Rib.Loc.route; src = Pipeline.get_src r } t.main
    done;
    t
  with Rbuf.Truncated what -> invalid_arg ("Xrouter.restore: truncated image: " ^ what)

(* An independent in-process copy. The tables are persistent tries, so
   the clone holds references and copies only the mutable per-peer
   cells — O(#peers), all route storage physically shared. *)
let clone t =
  let peers =
    List.map
      (fun (addr, p) -> (addr, { pcfg = p.pcfg; up = p.up; rin = p.rin; rout = p.rout }))
      t.peers
  in
  { cfg = t.cfg; peers; main = t.main; statics = t.statics; updates = t.updates }
