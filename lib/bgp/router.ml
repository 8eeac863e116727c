open Dice_inet
open Dice_concolic
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

type output =
  | To_peer of Ipv4.t * Msg.t
  | Connect_request of Ipv4.t
  | Close_connection of Ipv4.t
  | Set_timer of Ipv4.t * Fsm.timer * float
  | Clear_timer of Ipv4.t * Fsm.timer
  | Session_up of Ipv4.t
  | Session_down of Ipv4.t * string

type peer_rt = {
  pcfg : Config_types.peer_cfg;
  mutable fsm : Fsm.state;
  mutable adj_in : Rib.Adj.t;
  mutable adj_out : Rib.Adj.t;
  mutable as4 : bool;
}

(* slot bookkeeping for stable-layout snapshots (see the Checkpointing
   section): every RIB entry owns a fixed-size slot, keyed by table and
   prefix, so snapshots have a stable page layout *)
type slot_key =
  | Slot_loc of Prefix.t
  | Slot_adj_in of Ipv4.t * Prefix.t
  | Slot_adj_out of Ipv4.t * Prefix.t

let compare_slot_key a b =
  let rank = function
    | Slot_loc _ -> 0
    | Slot_adj_in _ -> 1
    | Slot_adj_out _ -> 2
  in
  match (a, b) with
  | Slot_loc p, Slot_loc q -> Prefix.compare p q
  | Slot_adj_in (x, p), Slot_adj_in (y, q) | Slot_adj_out (x, p), Slot_adj_out (y, q) ->
    let c = Int.compare x y in
    if c <> 0 then c else Prefix.compare p q
  | _, _ -> Int.compare (rank a) (rank b)

module Slot_map = Map.Make (struct
  type t = slot_key

  let compare = compare_slot_key
end)

(* Where the last image written or read put every entry. Persistent, so
   a clone shares it instead of copying it. *)
type layout = {
  slots : int Slot_map.t;
  next_slot : int;  (* slots in the image *)
  free_slots : int list;  (* ascending *)
  spilled : (int * bytes) list;
      (* oversized payloads by slot, ascending: the overflow region *)
}

type t = {
  cfg : Config_types.t;
  peers : (Ipv4.t, peer_rt) Hashtbl.t;
  statics : Rib.Loc.entry Dice_inet.Prefix_trie.t;
  mutable loc : Rib.Loc.t;
  mutable updates : int;
  mutable layout : layout;
}

let config t = t.cfg

let create cfg =
  let statics = Prefix_trie.of_list (Pipeline.statics cfg) in
  let t =
    {
      cfg;
      peers = Hashtbl.create 8;
      statics;
      loc = Prefix_trie.fold (fun p e acc -> Rib.Loc.set p e acc) statics Rib.Loc.empty;
      updates = 0;
      layout = { slots = Slot_map.empty; next_slot = 0; free_slots = []; spilled = [] };
    }
  in
  List.iter
    (fun pcfg ->
      Hashtbl.replace t.peers pcfg.Config_types.neighbor
        { pcfg; fsm = Fsm.initial; adj_in = Rib.Adj.empty; adj_out = Rib.Adj.empty; as4 = true })
    cfg.Config_types.peers;
  t

let peer_exn t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Router: unknown peer %s" (Ipv4.to_string addr))

let peer_state t addr = Option.map (fun p -> p.fsm) (Hashtbl.find_opt t.peers addr)

let established_peers t =
  Hashtbl.fold (fun addr p acc -> if p.fsm = Fsm.Established then addr :: acc else acc)
    t.peers []
  |> List.sort compare

let loc_rib t = t.loc
let adj_rib_in t addr = Option.map (fun p -> p.adj_in) (Hashtbl.find_opt t.peers addr)
let adj_rib_out t addr = Option.map (fun p -> p.adj_out) (Hashtbl.find_opt t.peers addr)
let best_route t prefix = Rib.Loc.find_opt prefix t.loc
let updates_processed t = t.updates

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)
(* ------------------------------------------------------------------ *)

let candidates t prefix =
  let from_static =
    match Prefix_trie.find_opt prefix t.statics with
    | Some e -> [ (e.Rib.Loc.route, e.Rib.Loc.src) ]
    | None -> []
  in
  Hashtbl.fold
    (fun _ p acc ->
      match Rib.Adj.find_opt prefix p.adj_in with
      | Some r -> (r, Pipeline.src_of_peer ~local_as:t.cfg.Config_types.local_as p.pcfg) :: acc
      | None -> acc)
    t.peers from_static

let decide t prefix =
  match Decision.best (candidates t prefix) with
  | Some (route, src) -> Some { Rib.Loc.route; src }
  | None -> None

(* ------------------------------------------------------------------ *)
(* Export path                                                         *)
(* ------------------------------------------------------------------ *)

(* Compute the UPDATE (if any) for [prefix]'s new best towards [dst], and
   update the Adj-RIB-Out. *)
let export_to ?(ctx = Engine.null) t (dst : peer_rt) prefix best =
  if dst.fsm <> Fsm.Established then []
  else begin
    let previously = Rib.Adj.find_opt prefix dst.adj_out in
    match Pipeline.export ~ctx t.cfg dst.pcfg prefix ~previously best with
    | None -> []
    | Some (now, msg) ->
      dst.adj_out <-
        (match now with
        | Some r -> Rib.Adj.add prefix r dst.adj_out
        | None -> Rib.Adj.remove prefix dst.adj_out);
      [ msg ]
  end

let export_all ?ctx t prefix best =
  Hashtbl.fold (fun _ dst acc -> acc @ export_to ?ctx t dst prefix best) t.peers []

(* Recompute the best route for [prefix]; update Loc-RIB and export. *)
let reconsider ?ctx t prefix =
  let old_best = Rib.Loc.find_opt prefix t.loc in
  let new_best = decide t prefix in
  if Pipeline.best_changed old_best new_best then begin
    (match new_best with
    | Some e -> t.loc <- Rib.Loc.set prefix e t.loc
    | None -> t.loc <- Rib.Loc.remove prefix t.loc);
    export_all ?ctx t prefix new_best
  end
  else []

(* ------------------------------------------------------------------ *)
(* Import path                                                         *)
(* ------------------------------------------------------------------ *)

(* Concolic pre-decision: would the candidate beat the incumbent? This
   mirrors the first decision rules over concolic values so exploration
   can steer announcements into (or out of) the Loc-RIB. The authoritative
   installation still goes through the concrete decision process. *)
let concolic_beats ctx (cr : Croute.t) (incumbent : Rib.Loc.entry option) =
  match incumbent with
  | None -> true
  | Some { Rib.Loc.route = old; _ } -> begin
    let c32 v = Cval.concrete ~width:32 (Int64.of_int v) in
    let lp_new =
      if cr.Croute.has_local_pref then cr.Croute.local_pref else c32 100
    in
    let lp_old = c32 (Option.value old.Route.local_pref ~default:100) in
    if Engine.branchf ctx "decision:local-pref-gt" (Cval.ugt lp_new lp_old) then true
    else if Engine.branchf ctx "decision:local-pref-lt" (Cval.ult lp_new lp_old) then false
    else begin
      let len_new = Asn.Path.length cr.Croute.as_path in
      let len_old = Asn.Path.length old.Route.as_path in
      if len_new <> len_old then len_new < len_old
      else begin
        let org_new = cr.Croute.origin in
        let org_old = c32 (Attr.origin_code old.Route.origin) in
        if Engine.branchf ctx "decision:origin-lt" (Cval.ult org_new org_old) then true
        else not (Engine.branchf ctx "decision:origin-gt" (Cval.ugt org_new org_old))
      end
    end
  end

(* Concolic RIB-lookup probe: a radix-trie LPM walk compares the looked-up
   address against node prefixes bit-range by bit-range; recording those
   comparisons over the *symbolic* NLRI is what lets the explorer construct
   announcements that collide with — or exactly override — address space
   already in the table (the paper's hijack discovery mechanism: Oasis
   manipulates the NLRI until an accepted route conflicts with an existing
   origin). The walk follows the concrete descent; each visited node adds a
   containment branch, and bound nodes also add an exact-prefix branch. *)
let rib_walk_probe ctx t (cr : Croute.t) =
  if Engine.recording ctx then begin
    let addr = cr.Croute.net_addr and len = cr.Croute.net_len in
    let c32 v = Cval.concrete ~width:32 (Int64.of_int v) in
    let concrete_addr = Cval.to_int addr land 0xFFFFFFFF in
    List.iteri
      (fun depth (q, has_value) ->
        let qlen = Prefix.len q in
        if qlen > 0 then begin
          let diff = Cval.logxor addr (c32 (Prefix.network q)) in
          let agree = Cval.eq (Cval.shift_right diff (32 - qlen)) (c32 0) in
          ignore (Engine.branchf ctx (Printf.sprintf "rib:walk%d" depth) agree);
          if has_value then begin
            let exact =
              Cval.and_ agree
                (Cval.eq len (Cval.concrete ~width:8 (Int64.of_int qlen)))
            in
            ignore (Engine.branchf ctx (Printf.sprintf "rib:exact%d" depth) exact)
          end
        end)
      (Rib.Loc.descent concrete_addr t.loc)
  end

let import_concolic ~ctx t ~peer croute =
  let p = peer_exn t peer in
  t.updates <- t.updates + 1;
  Pipeline.import ~ctx t.cfg p.pcfg croute
    ~best:(fun prefix -> Rib.Loc.find_opt prefix t.loc)
    ~probe:(fun cr previous_best ->
      rib_walk_probe ctx t cr;
      (* record the concolic would-beat constraints for the explorer; the
         live path has nothing to record and discards the result *)
      if Engine.recording ctx then ignore (concolic_beats ctx cr previous_best))
    ~learn:(fun prefix route ->
      p.adj_in <- Rib.Adj.add prefix route p.adj_in;
      reconsider ~ctx t prefix)

(* Normal-path UPDATE processing. *)
let process_update ?(ctx = Engine.null) t ~peer u =
  let p = peer_exn t peer in
  Pipeline.process_update u
    ~import:(import_concolic ~ctx t ~peer)
    ~withdraw:(fun prefix ->
      if Rib.Adj.find_opt prefix p.adj_in = None then []
      else begin
        p.adj_in <- Rib.Adj.remove prefix p.adj_in;
        reconsider ~ctx t prefix
      end)
    ~tick:(fun () -> t.updates <- t.updates + 1)

(* ------------------------------------------------------------------ *)
(* Session management                                                  *)
(* ------------------------------------------------------------------ *)

let timer_duration (p : peer_rt) = function
  | Fsm.Connect_retry -> p.pcfg.Config_types.connect_retry_time
  | Fsm.Hold -> p.pcfg.Config_types.hold_time
  | Fsm.Keepalive_timer -> p.pcfg.Config_types.keepalive_time

let open_msg t =
  Msg.Open
    {
      Msg.version = 4;
      my_as = (if t.cfg.Config_types.local_as > 0xFFFF then 23456 else t.cfg.Config_types.local_as);
      hold_time = 90;
      bgp_id = t.cfg.Config_types.router_id;
      capabilities = [ Msg.Cap_as4 t.cfg.Config_types.local_as ];
    }

(* Announce the whole Loc-RIB to a newly established peer. *)
let initial_advertisement ?ctx t (p : peer_rt) =
  Rib.Loc.fold
    (fun prefix entry acc -> acc @ export_to ?ctx t p prefix (Some entry))
    t.loc []

let flush_peer ?ctx t (p : peer_rt) =
  let prefixes = List.map fst (Rib.Adj.to_list p.adj_in) in
  p.adj_in <- Rib.Adj.empty;
  p.adj_out <- Rib.Adj.empty;
  List.concat_map (fun prefix -> reconsider ?ctx t prefix) prefixes

let to_peer = List.map (fun (dst, m) -> To_peer (dst, m))

let rec apply_actions ?ctx t (p : peer_rt) actions =
  List.concat_map
    (fun action ->
      let addr = p.pcfg.Config_types.neighbor in
      match action with
      | Fsm.Send_open -> [ To_peer (addr, open_msg t) ]
      | Fsm.Send_keepalive -> [ To_peer (addr, Msg.Keepalive) ]
      | Fsm.Send_notification n -> [ To_peer (addr, Msg.Notification n) ]
      | Fsm.Start_timer tm -> [ Set_timer (addr, tm, timer_duration p tm) ]
      | Fsm.Stop_timer tm -> [ Clear_timer (addr, tm) ]
      | Fsm.Initiate_connect -> [ Connect_request addr ]
      | Fsm.Drop_connection -> [ Close_connection addr ]
      | Fsm.Session_established -> Session_up addr :: to_peer (initial_advertisement ?ctx t p)
      | Fsm.Session_down reason -> Session_down (addr, reason) :: to_peer (flush_peer ?ctx t p)
      | Fsm.Deliver_update u -> to_peer (process_update ?ctx t ~peer:addr u))
    actions

and feed_event ?ctx t (p : peer_rt) ev =
  let state', actions = Fsm.step p.fsm ev in
  p.fsm <- state';
  apply_actions ?ctx t p actions

let start t =
  Hashtbl.fold (fun _ p acc -> acc @ feed_event t p Fsm.Manual_start) t.peers []

let handle_event t ~peer ev =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> feed_event t p ev

let handle_msg ?ctx t ~peer msg =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> begin
    match msg with
    | Msg.Open o ->
      (* validate the peer AS against configuration *)
      let claimed =
        match List.find_map (function Msg.Cap_as4 a -> Some a | _ -> None) o.Msg.capabilities with
        | Some real -> real
        | None -> o.Msg.my_as
      in
      p.as4 <-
        List.exists (function Msg.Cap_as4 _ -> true | _ -> false) o.Msg.capabilities;
      if claimed <> p.pcfg.Config_types.remote_as then begin
        let n = { Msg.code = 2; subcode = 2; data = Bytes.empty } in
        let outs = feed_event ?ctx t p (Fsm.Recv_notification n) in
        To_peer (p.pcfg.Config_types.neighbor, Msg.Notification n) :: outs
      end
      else feed_event ?ctx t p (Fsm.Recv_open o)
    | Msg.Update u -> feed_event ?ctx t p (Fsm.Recv_update u)
    | Msg.Keepalive -> feed_event ?ctx t p Fsm.Recv_keepalive
    | Msg.Notification n -> feed_event ?ctx t p (Fsm.Recv_notification n)
  end

let handle_bytes ?ctx t ~peer bytes =
  match Hashtbl.find_opt t.peers peer with
  | None -> []
  | Some p -> begin
    match Msg.decode ~as4:p.as4 bytes with
    | Ok msg -> handle_msg ?ctx t ~peer msg
    | Error e ->
      let n = Msg.error_notification e in
      let outs = feed_event ?ctx t p (Fsm.Recv_notification n) in
      To_peer (peer, Msg.Notification n) :: outs
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(* The snapshot models a process address space: every RIB entry lives in
   a fixed-size *slot* whose position is stable across snapshots (slots
   are assigned on first appearance and recycled on removal, like heap
   allocations). A router that installs or withdraws one route therefore
   dirties only the pages holding the affected slots — which is what
   makes the copy-on-write checkpoint accounting behave like fork() on
   the real daemon, instead of every page changing because a linear
   serialization shifted. Entries too large for one slot go to a linear
   overflow region (rare). *)

let magic = "DICERTR2"
let slot_size = 256

let fsm_code = function
  | Fsm.Idle -> 0
  | Fsm.Connect -> 1
  | Fsm.Active -> 2
  | Fsm.Open_sent -> 3
  | Fsm.Open_confirm -> 4
  | Fsm.Established -> 5

let fsm_of_code = function
  | 0 -> Fsm.Idle
  | 1 -> Fsm.Connect
  | 2 -> Fsm.Active
  | 3 -> Fsm.Open_sent
  | 4 -> Fsm.Open_confirm
  | 5 -> Fsm.Established
  | c -> invalid_arg (Printf.sprintf "Router.restore: bad FSM code %d" c)

(* slot payload: kind(1) peer(4) prefix(5) [src(13)] route — without the
   slot header byte *)
let encode_slot_payload w key payload_route src_opt =
  (match key with
  | Slot_loc prefix ->
    Wbuf.u8 w 1;
    Wbuf.u32 w 0;
    Pipeline.put_prefix w prefix
  | Slot_adj_in (peer, prefix) ->
    Wbuf.u8 w 2;
    Wbuf.u32 w peer;
    Pipeline.put_prefix w prefix
  | Slot_adj_out (peer, prefix) ->
    Wbuf.u8 w 3;
    Wbuf.u32 w peer;
    Pipeline.put_prefix w prefix);
  Option.iter (Pipeline.put_src w) src_opt;
  Pipeline.put_route w payload_route

let payload key route src_opt =
  let w = Wbuf.create () in
  encode_slot_payload w key route src_opt;
  Wbuf.contents w

let loc_payload prefix (e : Rib.Loc.entry) =
  payload (Slot_loc prefix) e.Rib.Loc.route (Some e.Rib.Loc.src)

let by_slot (a, _) (b, _) = Int.compare a b

(* The overflow list after [writes]: the [freed] slots and those of
   [rewrites] drop their old payload, and written payloads too large for a
   slot join. Physically the same list when nothing spilled or
   unspilled. *)
let respill spilled ~freed ~rewrites writes =
  let kept =
    if spilled = [] then []
    else begin
      let gone = Hashtbl.create 16 in
      List.iter (fun idx -> Hashtbl.replace gone idx ()) freed;
      List.iter (fun (idx, _) -> Hashtbl.replace gone idx ()) rewrites;
      List.filter (fun (idx, _) -> not (Hashtbl.mem gone idx)) spilled
    end
  in
  let fresh =
    List.filter_map
      (function
        | idx, Some p when Bytes.length p >= slot_size -> Some (idx, p)
        | _, (Some _ | None) -> None)
      writes
  in
  if fresh = [] && List.length kept = List.length spilled then spilled
  else List.merge by_slot kept (List.sort by_slot fresh)

(* The slot bookkeeping every image goes through, whole or patched.
   [changes] gives an entry's new payload, [None] for an entry that is
   gone. Gone entries free their slots; new ones take, in
   [compare_slot_key] order, the lowest free slot, else a new one past the
   end. Returns the new layout and the slots to write, each once: a
   payload, or [None] for a freed slot that nothing took. *)
let place l changes =
  let slots, freed, rewrites, fresh =
    List.fold_left
      (fun (slots, freed, rewrites, fresh) (k, p) ->
        match (p, Slot_map.find_opt k l.slots) with
        | None, Some idx -> (Slot_map.remove k slots, idx :: freed, rewrites, fresh)
        | Some p, Some idx -> (slots, freed, (idx, Some p) :: rewrites, fresh)
        | Some p, None -> (slots, freed, rewrites, (k, p) :: fresh)
        | None, None -> (slots, freed, rewrites, fresh))
      (l.slots, [], [], []) changes
  in
  let slots, free_slots, next_slot, writes =
    List.fold_left
      (fun (slots, free, next, writes) (k, p) ->
        match free with
        | idx :: rest -> (Slot_map.add k idx slots, rest, next, (idx, Some p) :: writes)
        | [] -> (Slot_map.add k next slots, [], next + 1, (next, Some p) :: writes))
      (slots, List.sort_uniq Int.compare (freed @ l.free_slots), l.next_slot, rewrites)
      (List.sort (fun (a, _) (b, _) -> compare_slot_key a b) fresh)
  in
  (* fresh keys took the lowest free slots, so the freed slots nothing
     took are those from the first one left *)
  let zeroed =
    match free_slots with
    | [] -> []
    | first :: _ -> List.filter (fun idx -> idx >= first) freed
  in
  let writes = List.fold_left (fun w idx -> (idx, None) :: w) writes zeroed in
  ( { slots; next_slot; free_slots; spilled = respill l.spilled ~freed ~rewrites writes },
    writes )

(* slot header byte 1 and the payload, or 2 for a payload that went to
   the overflow region *)
let fill_slot buf off payload =
  if Bytes.length payload < slot_size then begin
    Bytes.set buf off '\001';
    Bytes.blit payload 0 buf (off + 1) (Bytes.length payload)
  end
  else Bytes.set buf off '\002'

let encode_header t l =
  let peers =
    Hashtbl.fold (fun addr p acc -> (addr, p) :: acc) t.peers []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let w = Wbuf.create () in
  Wbuf.string w magic;
  Wbuf.u32 w t.updates;
  Wbuf.u16 w (List.length peers);
  List.iter
    (fun (addr, p) ->
      Wbuf.u32 w addr;
      Wbuf.u8 w (fsm_code p.fsm);
      Wbuf.u8 w (if p.as4 then 1 else 0))
    peers;
  Wbuf.u32 w l.next_slot;
  Wbuf.contents w

let header_room header = ((Bytes.length header / slot_size) + 1) * slot_size

(* overflow payloads in slot order: restore hands them back to the
   spilled slots in ascending index order *)
let encode_tail spilled =
  let w = Wbuf.create () in
  Wbuf.u32 w (List.length spilled);
  List.iter
    (fun (_, p) ->
      Wbuf.u16 w (Bytes.length p);
      Wbuf.bytes w p)
    spilled;
  Wbuf.contents w

let snapshot t =
  let live = Hashtbl.create 256 in
  Rib.Loc.fold (fun prefix e () -> Hashtbl.replace live (Slot_loc prefix) (loc_payload prefix e))
    t.loc ();
  Hashtbl.iter
    (fun addr p ->
      let add key route = Hashtbl.replace live key (payload key route None) in
      Rib.Adj.fold (fun prefix r () -> add (Slot_adj_in (addr, prefix)) r) p.adj_in ();
      Rib.Adj.fold (fun prefix r () -> add (Slot_adj_out (addr, prefix)) r) p.adj_out ())
    t.peers;
  let changes =
    Slot_map.fold
      (fun k _ acc -> if Hashtbl.mem live k then acc else (k, None) :: acc)
      t.layout.slots
      (Hashtbl.fold (fun k p acc -> (k, Some p) :: acc) live [])
  in
  let l, writes = place t.layout changes in
  t.layout <- l;
  let header = encode_header t l in
  let room = header_room header in
  let region = Bytes.make (room + (l.next_slot * slot_size)) '\000' in
  Bytes.blit header 0 region 0 (Bytes.length header);
  List.iter (fun (idx, p) -> Option.iter (fill_slot region (room + (idx * slot_size))) p) writes;
  Bytes.cat region (encode_tail l.spilled)

(* The same bookkeeping over only the entries that differ between [base]
   and [t]: the RIB diffs skip every subtree the two still share, so
   between clones of one router the cost is the write set. The diffs hold
   for any two routers of one configuration; sharing only makes them
   fast. [t] keeps the layout its image now has, so [t] can be the next
   base; [base] is only read. *)
let snapshot_patch ~base t =
  let changes = ref [] in
  let note key p = changes := (key, p) :: !changes in
  List.iter
    (fun (prefix, _, e) -> note (Slot_loc prefix) (Option.map (loc_payload prefix) e))
    (Rib.Loc.diff base.loc t.loc);
  Seq.iter
    (fun (addr, bp) ->
      let tp = peer_exn t addr in
      let adj slot before after =
        List.iter
          (fun (prefix, _, r) ->
            let key = slot prefix in
            note key (Option.map (fun r -> payload key r None) r))
          (Rib.Adj.diff before after)
      in
      adj (fun prefix -> Slot_adj_in (addr, prefix)) bp.adj_in tp.adj_in;
      adj (fun prefix -> Slot_adj_out (addr, prefix)) bp.adj_out tp.adj_out)
    (Hashtbl.to_seq base.peers);
  let l, writes = place base.layout !changes in
  t.layout <- l;
  let header = encode_header t l in
  let room = header_room header in
  let slots =
    List.map
      (fun (idx, p) ->
        let b = Bytes.make slot_size '\000' in
        Option.iter (fill_slot b 0) p;
        (room + (idx * slot_size), b))
      writes
  in
  let tail_off = room + (l.next_slot * slot_size) in
  let tail_len = List.fold_left (fun n (_, p) -> n + 2 + Bytes.length p) 4 l.spilled in
  let moved = l.next_slot <> base.layout.next_slot || l.spilled != base.layout.spilled in
  ( tail_off + tail_len,
    ((0, header) :: slots) @ if moved then [ (tail_off, encode_tail l.spilled) ] else [] )

let decode_slot_payload t r =
  let kind = Rbuf.u8 ~what:"slot kind" r in
  let peer_addr = Rbuf.u32 ~what:"slot peer" r in
  let prefix = Pipeline.get_prefix r in
  match kind with
  | 1 ->
    let src = Pipeline.get_src r in
    let route = Pipeline.get_route r in
    t.loc <- Rib.Loc.set prefix { Rib.Loc.route; src } t.loc;
    Slot_loc prefix
  | 2 | 3 -> begin
    let route = Pipeline.get_route r in
    match Hashtbl.find_opt t.peers peer_addr with
    | Some p ->
      if kind = 2 then p.adj_in <- Rib.Adj.add prefix route p.adj_in
      else p.adj_out <- Rib.Adj.add prefix route p.adj_out;
      if kind = 2 then Slot_adj_in (peer_addr, prefix) else Slot_adj_out (peer_addr, prefix)
    | None ->
      invalid_arg
        (Printf.sprintf "Router.restore: snapshot peer %s not in configuration"
           (Ipv4.to_string peer_addr))
  end
  | k -> invalid_arg (Printf.sprintf "Router.restore: bad slot kind %d" k)

let restore cfg image =
  try
    let r = Rbuf.of_bytes image in
    let m = Bytes.to_string (Rbuf.take ~what:"magic" r (String.length magic)) in
    if m <> magic then invalid_arg "Router.restore: bad magic";
    let t = create cfg in
    t.loc <- Rib.Loc.empty;  (* statics come back through the loc slots *)
    t.updates <- Rbuf.u32 ~what:"updates" r;
    let n_peers = Rbuf.u16 ~what:"peer count" r in
    for _ = 1 to n_peers do
      let addr = Rbuf.u32 ~what:"peer addr" r in
      let fsm = fsm_of_code (Rbuf.u8 ~what:"fsm" r) in
      let as4 = Rbuf.u8 ~what:"as4" r = 1 in
      match Hashtbl.find_opt t.peers addr with
      | Some p ->
        p.fsm <- fsm;
        p.as4 <- as4
      | None ->
        invalid_arg
          (Printf.sprintf "Router.restore: snapshot peer %s not in configuration"
             (Ipv4.to_string addr))
    done;
    let n_slots = Rbuf.u32 ~what:"slot count" r in
    let header_len = Rbuf.pos r in
    let header_room = ((header_len / slot_size) + 1) * slot_size in
    if Bytes.length image < header_room + (n_slots * slot_size) + 4 then
      invalid_arg "Router.restore: image shorter than its slot region";
    let slots = ref Slot_map.empty and free = ref [] and spilled = ref [] in
    for idx = 0 to n_slots - 1 do
      let off = header_room + (idx * slot_size) in
      match Bytes.get image off with
      | '\000' -> free := idx :: !free
      | '\001' ->
        let sr = Rbuf.of_bytes (Bytes.sub image (off + 1) (slot_size - 1)) in
        let key = decode_slot_payload t sr in
        slots := Slot_map.add key idx !slots
      | '\002' -> spilled := idx :: !spilled
      | c -> invalid_arg (Printf.sprintf "Router.restore: bad slot marker %C" c)
    done;
    (* overflow region *)
    let tail_off = header_room + (n_slots * slot_size) in
    let tail = Rbuf.of_bytes (Bytes.sub image tail_off (Bytes.length image - tail_off)) in
    let n_overflow = Rbuf.u32 ~what:"overflow count" tail in
    if n_overflow <> List.length !spilled then
      invalid_arg "Router.restore: overflow count does not match spilled slots";
    (* overflow payloads are written in ascending slot order *)
    let spilled =
      List.fold_left
        (fun acc idx ->
          let len = Rbuf.u16 ~what:"overflow len" tail in
          let body = Rbuf.take ~what:"overflow payload" tail len in
          let key = decode_slot_payload t (Rbuf.of_bytes body) in
          slots := Slot_map.add key idx !slots;
          (idx, body) :: acc)
        [] (List.sort Int.compare !spilled)
      |> List.rev
    in
    t.layout <-
      { slots = !slots; next_slot = n_slots; free_slots = List.rev !free; spilled };
    t
  with Rbuf.Truncated what -> invalid_arg ("Router.restore: truncated image: " ^ what)

(* ------------------------------------------------------------------ *)
(* In-process cloning                                                  *)
(* ------------------------------------------------------------------ *)

(* Worker domains clone one shared checkpoint at once, so cloning only
   reads [t]: [Hashtbl.to_seq], unlike [Hashtbl.iter], leaves the table's
   traversal flag alone. *)
let clone t =
  let peers = Hashtbl.create (Hashtbl.length t.peers) in
  Seq.iter
    (fun (addr, p) ->
      (* fresh mutable cell per peer; the Adj-RIB tries inside are
         persistent and stay physically shared with the live router *)
      Hashtbl.replace peers addr
        { pcfg = p.pcfg; fsm = p.fsm; adj_in = p.adj_in; adj_out = p.adj_out; as4 = p.as4 })
    (Hashtbl.to_seq t.peers);
  {
    cfg = t.cfg;
    peers;
    statics = t.statics;
    loc = t.loc;
    updates = t.updates;
    layout = t.layout;
  }
