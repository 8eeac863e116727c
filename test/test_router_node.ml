(* Tests for the simulated-node adapter: timers, transport, framing,
   auto-restart, observation hooks. *)
open Dice_inet
open Dice_bgp
module Net = Dice_sim.Network

let p = Prefix.of_string

let pair ?(hold = 9) () =
  let mk id other local_as remote_as statics =
    Config_parser.parse
      (Printf.sprintf
         {|
         router id %s;
         local as %d;
         %s
         protocol bgp peer {
           neighbor %s as %d;
           import all; export all;
           hold time %d;
           keepalive time %d;
         }
         |}
         id local_as statics other remote_as hold (hold / 3))
  in
  let net = Net.create () in
  let a =
    Router_node.attach net ~name:"A"
      (Router.create
         (mk "10.0.0.1" "10.0.0.2" 65001 65002
            "protocol static { route 198.51.100.0/24 via 10.0.0.1; }"))
  in
  let b = Router_node.attach net ~name:"B" (Router.create (mk "10.0.0.2" "10.0.0.1" 65002 65001 "")) in
  Net.connect net (Router_node.node_id a) (Router_node.node_id b) ~latency:0.01;
  Router_node.bind_peer a ~neighbor:(Ipv4.of_string "10.0.0.2") ~node:(Router_node.node_id b);
  Router_node.bind_peer b ~neighbor:(Ipv4.of_string "10.0.0.1") ~node:(Router_node.node_id a);
  (net, a, b)

let state_of node addr =
  Option.map Fsm.state_to_string
    (Router.peer_state (Router_node.router node) (Ipv4.of_string addr))

let test_keepalives_beat_hold_timer () =
  let net, a, b = pair ~hold:9 () in
  Router_node.start a;
  Router_node.start b;
  (* 30x the hold time: only keepalives sustain the session *)
  ignore (Net.run ~until:270.0 net);
  Alcotest.(check (option string)) "A up" (Some "Established") (state_of a "10.0.0.2");
  Alcotest.(check (option string)) "B up" (Some "Established") (state_of b "10.0.0.1")

let test_hold_expires_when_peer_dies () =
  let net, a, b = pair ~hold:9 () in
  Router_node.start a;
  Router_node.start b;
  ignore (Net.run ~until:20.0 net);
  Alcotest.(check (option string)) "up first" (Some "Established") (state_of a "10.0.0.2");
  (* the link dies: every frame (keepalives included) is silently lost,
     and A's hold timer must eventually expire *)
  Net.disconnect net (Router_node.node_id a) (Router_node.node_id b);
  ignore (Net.run ~until:(Net.now net +. 40.0) net);
  Alcotest.(check bool) "A tore the session down" true
    (state_of a "10.0.0.2" <> Some "Established")

let test_route_withdrawn_after_session_loss () =
  let net, a, b = pair ~hold:9 () in
  Router_node.start a;
  Router_node.start b;
  ignore (Net.run ~until:20.0 net);
  Alcotest.(check bool) "B learned the static" true
    (Router.best_route (Router_node.router b) (p "198.51.100.0/24") <> None);
  (* A's transport to B fails explicitly *)
  ignore
    (Router.handle_event (Router_node.router b) ~peer:(Ipv4.of_string "10.0.0.1")
       Fsm.Tcp_failed);
  Alcotest.(check bool) "B flushed the route" true
    (Router.best_route (Router_node.router b) (p "198.51.100.0/24") = None)

let test_frame_bgp_roundtrip () =
  let framed = Router_node.frame_bgp Msg.Keepalive in
  Alcotest.(check int) "tag byte" 0x03 (Char.code (Bytes.get framed 0));
  let payload = Bytes.sub framed 1 (Bytes.length framed - 1) in
  Alcotest.(check bool) "payload decodes" true (Msg.decode payload = Ok Msg.Keepalive)

let test_garbage_frame_ignored () =
  let net, a, b = pair () in
  Router_node.start a;
  Router_node.start b;
  ignore (Net.run ~until:20.0 net);
  (* junk tag byte: dropped without tearing anything down *)
  Net.send net ~src:(Router_node.node_id b) ~dst:(Router_node.node_id a)
    (Bytes.of_string "\xEEgarbage");
  Net.send net ~src:(Router_node.node_id b) ~dst:(Router_node.node_id a) Bytes.empty;
  ignore (Net.run ~until:(Net.now net +. 5.0) net);
  Alcotest.(check (option string)) "still up" (Some "Established") (state_of a "10.0.0.2")

let test_malformed_bgp_payload_resets_session () =
  let net, a, b = pair () in
  Router_node.start a;
  Router_node.start b;
  ignore (Net.run ~until:20.0 net);
  (* a valid frame tag carrying garbage BGP bytes: RFC behavior is a
     NOTIFICATION and session reset *)
  let junk = Bytes.make 30 '\x00' in
  let framed = Bytes.cat (Bytes.make 1 '\x03') junk in
  Net.send net ~src:(Router_node.node_id b) ~dst:(Router_node.node_id a) framed;
  ignore (Net.run ~until:(Net.now net +. 2.0) net);
  Alcotest.(check bool) "A reset the session" true (state_of a "10.0.0.2" <> Some "Established");
  (* with auto-restart both sides re-establish *)
  ignore (Net.run ~until:(Net.now net +. 60.0) net);
  Alcotest.(check (option string)) "re-established" (Some "Established") (state_of a "10.0.0.2")

let suite =
  [ ("keepalives beat hold timer", `Quick, test_keepalives_beat_hold_timer);
    ("hold expires when peer dies", `Quick, test_hold_expires_when_peer_dies);
    ("route withdrawn after session loss", `Quick, test_route_withdrawn_after_session_loss);
    ("frame_bgp roundtrip", `Quick, test_frame_bgp_roundtrip);
    ("garbage frame ignored", `Quick, test_garbage_frame_ignored);
    ("malformed payload resets session", `Quick, test_malformed_bgp_payload_resets_session)
  ]
