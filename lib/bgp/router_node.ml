open Dice_inet
module Net = Dice_sim.Network

(* transport framing tags *)
let tag_syn = 0x01
let tag_syn_ack = 0x02
let tag_bgp = 0x03
let tag_fin = 0x04

type t = {
  net : Net.t;
  mutable id : Net.node_id;
  router : Router.t;
  peer_nodes : (Ipv4.t, Net.node_id) Hashtbl.t;  (* neighbor addr -> node *)
  node_peers : (Net.node_id, Ipv4.t) Hashtbl.t;
  timer_gen : (Ipv4.t * Fsm.timer, int) Hashtbl.t;
}

let node_id t = t.id
let router t = t.router

let frame tag payload =
  let b = Bytes.create (1 + Bytes.length payload) in
  Bytes.set b 0 (Char.chr tag);
  Bytes.blit payload 0 b 1 (Bytes.length payload);
  b

let gen_of t key =
  match Hashtbl.find_opt t.timer_gen key with
  | Some g -> g
  | None -> 0

let bump t key = Hashtbl.replace t.timer_gen key (gen_of t key + 1)

let rec execute t outputs = List.iter (execute_one t) outputs

and execute_one t = function
  | Router.To_peer (addr, msg) -> begin
    match Hashtbl.find_opt t.peer_nodes addr with
    | Some dst when Net.connected t.net t.id dst ->
      Net.send t.net ~src:t.id ~dst (frame tag_bgp (Msg.encode msg))
    | Some _ | None -> ()  (* link down: the frame is lost, like a real packet *)
  end
  | Router.Connect_request addr -> begin
    match Hashtbl.find_opt t.peer_nodes addr with
    | Some dst when Net.connected t.net t.id dst ->
      Net.send t.net ~src:t.id ~dst (frame tag_syn Bytes.empty)
    | Some _ | None ->
      (* unreachable neighbor: the transport attempt fails *)
      execute t (Router.handle_event t.router ~peer:addr Fsm.Tcp_failed)
  end
  | Router.Close_connection addr -> begin
    match Hashtbl.find_opt t.peer_nodes addr with
    | Some dst ->
      if Net.connected t.net t.id dst then
        Net.send t.net ~src:t.id ~dst (frame tag_fin Bytes.empty)
    | None -> ()
  end
  | Router.Set_timer (addr, timer, delay) ->
    let key = (addr, timer) in
    bump t key;
    let my_gen = gen_of t key in
    Net.schedule t.net ~delay (fun () ->
        if gen_of t key = my_gen then
          execute t (Router.handle_event t.router ~peer:addr (Fsm.Timer_expired timer)))
  | Router.Clear_timer (addr, timer) -> bump t (addr, timer)
  | Router.Session_up _ -> ()
  | Router.Session_down (addr, _) ->
    (* real daemons re-enter the FSM after an idle-hold delay; without
       this, any session reset (e.g. a collision notification) would be
       permanent in the simulation *)
    Net.schedule t.net ~delay:5.0 (fun () ->
        if Router.peer_state t.router addr = Some Fsm.Idle then
          execute t (Router.handle_event t.router ~peer:addr Fsm.Manual_start))

let handle_frame t ~from bytes =
  match Hashtbl.find_opt t.node_peers from with
  | None -> ()  (* message from an unconfigured node: drop *)
  | Some addr ->
    if Bytes.length bytes = 0 then ()
    else begin
      let tag = Char.code (Bytes.get bytes 0) in
      let payload = Bytes.sub bytes 1 (Bytes.length bytes - 1) in
      if tag = tag_syn then begin
        (* passive open: acknowledge, and treat our own transport as up *)
        Net.send t.net ~src:t.id ~dst:from (frame tag_syn_ack Bytes.empty);
        execute t (Router.handle_event t.router ~peer:addr Fsm.Tcp_connected)
      end
      else if tag = tag_syn_ack then
        execute t (Router.handle_event t.router ~peer:addr Fsm.Tcp_connected)
      else if tag = tag_fin then
        execute t (Router.handle_event t.router ~peer:addr Fsm.Tcp_failed)
      else if tag = tag_bgp then
        execute t (Router.handle_bytes t.router ~peer:addr payload)
      else ()
    end

let attach net ~name router =
  let t =
    {
      net;
      id = -1;
      router;
      peer_nodes = Hashtbl.create 8;
      node_peers = Hashtbl.create 8;
      timer_gen = Hashtbl.create 16;
    }
  in
  let handler _net ~self:_ ~from bytes = handle_frame t ~from bytes in
  t.id <- Net.add_node net ~name ~handler;
  t

let bind_peer t ~neighbor ~node =
  Hashtbl.replace t.peer_nodes neighbor node;
  Hashtbl.replace t.node_peers node neighbor

let start t = execute t (Router.start t.router)

let frame_bgp msg = frame tag_bgp (Msg.encode msg)
