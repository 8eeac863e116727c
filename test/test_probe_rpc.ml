(* Tests for the probe RPC layer and the Remote transport: Local/Remote
   equivalence over a connected link, timeout degradation over a cut
   link, backoff recovery over a slow link, and the confidentiality
   assertion — in remote mode the exploring side holds no router, and
   every octet that crosses the inter-domain link decodes as a
   Probe_wire frame. *)
open Dice_inet
open Dice_bgp
open Dice_core
module Network = Dice_sim.Network

let p = Prefix.of_string
let provider_side = Ipv4.of_string "10.0.2.1"
let collector = Ipv4.of_string "10.0.3.2"

let establish router peer remote_as =
  ignore (Router.handle_event router ~peer Fsm.Manual_start);
  ignore (Router.handle_event router ~peer Fsm.Tcp_connected);
  ignore
    (Router.handle_msg router ~peer
       (Msg.Open
          { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90; bgp_id = peer;
            capabilities = [ Msg.Cap_as4 remote_as ] }));
  ignore (Router.handle_msg router ~peer Msg.Keepalive)

let upstream () =
  let r =
    Router.create
      (Config_parser.parse
         {|
         router id 10.0.2.2;
         local as 64700;
         protocol bgp provider { neighbor 10.0.2.1 as 64510; import all; export none; }
         protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
         anycast [ 192.88.99.0/24 ];
         |})
  in
  establish r provider_side 64510;
  establish r collector 64701;
  List.iter
    (fun (prefix, origin) ->
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64701; origin ] ]
          ~next_hop:collector ()
      in
      ignore
        (Router.handle_msg r ~peer:collector
           (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ p prefix ] })))
    [ ("198.51.0.0/16", 64999); ("8.8.8.0/24", 64888); ("192.88.99.0/24", 64777) ];
  r

let announcement ?(origin_asn = 64510) prefixes =
  Msg.Update
    {
      withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp
             ~as_path:[ Asn.Path.Seq [ 64510; origin_asn ] ]
             ~next_hop:provider_side ());
      nlri = List.map p prefixes;
    }

let local_agent ?(name = "up") router =
  Distributed.agent ~name ~addr:(Ipv4.of_string "10.0.2.2")
    ~explorer_addr:provider_side (Distributed.Local (Speakers.bird router))

(* A served upstream plus a Remote agent reaching it over [latency]
   links. Returns (remote agent, serving agent, net, client, server). *)
let remote_setup ?config ?(latency = 0.001) router =
  let net = Network.create () in
  let serving = local_agent ~name:"up-serving" router in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"explorer" in
  Network.connect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv) ~latency;
  let ep = Probe_rpc.endpoint ?config cl ~server:(Probe_rpc.server_node srv) in
  let ra =
    Distributed.agent ~name:"up-remote" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Remote ep)
  in
  (ra, serving, net, cl, srv)

let render outcome =
  match outcome with
  | Distributed.Timeout -> "timeout"
  | Distributed.Declined r -> "declined:" ^ r
  | Distributed.Verdicts vs ->
    String.concat ";"
      (List.map
         (fun (q, (v : Distributed.verdict)) ->
           Printf.sprintf "%s=%b|%b|%b|%d|%d" (Prefix.to_string q) v.Distributed.accepted
             v.Distributed.installed v.Distributed.origin_conflict
             v.Distributed.covers_foreign v.Distributed.would_propagate)
         vs)

let workload =
  [ announcement [ "198.51.100.0/24" ];  (* origin conflict *)
    announcement [ "198.0.0.0/8" ];  (* coverage leak *)
    announcement [ "100.0.0.0/16" ];  (* clean *)
    announcement [ "198.51.100.0/24"; "100.0.0.0/16" ];  (* multi-prefix *)
    announcement [ "192.88.99.0/24" ];  (* whitelisted *)
    announcement ~origin_asn:64888 [ "8.8.8.0/24" ];  (* same origin *)
    Msg.Keepalive  (* declined *) ]

let test_local_remote_equivalence () =
  let up = upstream () in
  let la = local_agent up in
  let ra, _, _, _, _ = remote_setup (upstream ()) in
  List.iteri
    (fun i msg ->
      Alcotest.(check string)
        (Printf.sprintf "message %d answers identically over both transports" i)
        (render (Distributed.probe la ~from:provider_side msg))
        (render (Distributed.probe ra ~from:provider_side msg)))
    workload

let test_probe_all_mixed_transports () =
  (* interleaved local and remote requests: identical verdicts, request
     order preserved whatever the transport mix *)
  let la = local_agent (upstream ()) in
  let ra, _, _, _, _ = remote_setup (upstream ()) in
  let reqs agent = List.map (fun m -> (agent, provider_side, m)) workload in
  let interleaved =
    List.concat_map (fun (x, y) -> [ x; y ]) (List.combine (reqs ra) (reqs la))
  in
  let answers = Distributed.probe_all ~jobs:2 interleaved in
  List.iteri
    (fun i (outcome, (_, _, _msg)) ->
      let expected =
        render (List.nth answers (if i mod 2 = 0 then i + 1 else i - 1))
      in
      Alcotest.(check string)
        (Printf.sprintf "request %d matches its other-transport twin" i)
        expected (render outcome))
    (List.combine answers interleaved)

(* Each simulated network has its own RPC lock, so two domains probing
   over two networks run at once. Both start together and pump their own
   network through 20 batches; every batch must complete with the
   answers a local probe gives. *)
let test_two_networks_two_domains () =
  let msgs = List.filter (fun m -> m <> Msg.Keepalive) workload in
  let expected =
    let la = local_agent (upstream ()) in
    List.map (fun m -> render (Distributed.probe la ~from:provider_side m)) msgs
  in
  let reqs = List.map (Probe_wire.canonical_request ~from:provider_side) msgs in
  let endpoints =
    List.init 2 (fun _ ->
        let _, _, _, cl, srv = remote_setup (upstream ()) in
        Probe_rpc.endpoint cl ~server:(Probe_rpc.server_node srv))
  in
  let ready = Atomic.make 0 in
  let domains =
    List.map
      (fun ep ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 2 do Domain.cpu_relax () done;
            List.init 20 (fun _ -> Probe_rpc.call_batch ep reqs)))
      endpoints
  in
  List.iteri
    (fun d dom ->
      List.iteri
        (fun round answers ->
          Alcotest.(check (list string))
            (Printf.sprintf "domain %d, batch %d" d round)
            expected
            (List.map
               (function
                 | Probe_rpc.Verdicts vs -> render (Distributed.Verdicts vs)
                 | Probe_rpc.Declined r -> render (Distributed.Declined r)
                 | Probe_rpc.Timeout -> render Distributed.Timeout)
               answers))
        (Domain.join dom))
    domains

let test_disconnected_times_out () =
  let config = { Probe_rpc.default_config with Probe_rpc.timeout = 0.5; retries = 2 } in
  let ra, _, net, cl, srv = remote_setup ~config (upstream ()) in
  Network.disconnect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv);
  (match Distributed.probe ra ~from:provider_side (announcement [ "198.51.100.0/24" ]) with
  | Distributed.Timeout -> ()
  | o -> Alcotest.failf "expected a timeout over the cut link, got %s" (render o));
  let s = Distributed.stats ra in
  Alcotest.(check int) "all configured retries spent" config.Probe_rpc.retries
    s.Distributed.retries;
  Alcotest.(check int) "one timeout recorded" 1 s.Distributed.timeouts;
  (* declines never touch the wire, so they still answer *)
  match Distributed.probe ra ~from:provider_side Msg.Keepalive with
  | Distributed.Declined _ -> ()
  | o -> Alcotest.failf "decline should not need the link, got %s" (render o)

let test_checker_survives_partition () =
  (* an unreachable agent degrades the checker to zero findings — no
     exception escapes, exploration would continue *)
  let up = upstream () in
  let config = { Probe_rpc.default_config with Probe_rpc.retries = 1 } in
  let ra, _, net, cl, srv = remote_setup ~config up in
  Network.disconnect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv);
  let chk = Distributed.checker ~jobs:1 ~agents:[ ra ] in
  let ctx =
    { Checker.pre_loc_rib = Router.loc_rib up;
      anycast = [];
      peer = Ipv4.of_string "10.0.1.2";
      peer_as = 64501;
    }
  in
  let outcome : Speaker.import_outcome =
    { Speaker.prefix = p "203.0.113.0/24";
      accepted = true;
      installed = true;
      route = None;
      previous_best = None;
      outputs = [ (Distributed.agent_addr ra, announcement [ "198.51.100.0/24" ]) ];
    }
  in
  Alcotest.(check int) "no findings, no exception" 0
    (List.length (chk.Checker.check ctx outcome));
  Alcotest.(check int) "the probe timed out" 1 (Distributed.stats ra).Distributed.timeouts

let test_slow_link_backoff_recovers () =
  (* 80 ms links: the 160 ms round trip always outlives the 50 ms first
     attempt; the stable request id lets a late response to attempt 0
     complete the call while backoff is still widening the window *)
  let config =
    { Probe_rpc.default_config with Probe_rpc.timeout = 0.05; retries = 3 }
  in
  let ra, _, _, _, _ = remote_setup ~config ~latency:0.08 (upstream ()) in
  (match Distributed.probe ra ~from:provider_side (announcement [ "198.51.100.0/24" ]) with
  | Distributed.Verdicts [ (_, v) ] ->
    Alcotest.(check bool) "verdict intact after retries" true v.Distributed.origin_conflict
  | o -> Alcotest.failf "expected verdicts over the slow link, got %s" (render o));
  let s = Distributed.stats ra in
  Alcotest.(check bool) "retries were needed" true (s.Distributed.retries >= 1);
  Alcotest.(check int) "but nothing timed out" 0 s.Distributed.timeouts

let test_server_error_becomes_decline () =
  let net = Network.create () in
  let srv =
    Probe_rpc.serve net ~name:"flaky" ~answer:(fun ~from:_ _ -> failwith "boom")
  in
  let cl = Probe_rpc.client net ~name:"cl" in
  Network.connect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv)
    ~latency:0.001;
  let ep = Probe_rpc.endpoint cl ~server:(Probe_rpc.server_node srv) in
  (match
     Probe_rpc.call ep
       (Probe_wire.canonical_request ~from:provider_side
          (announcement [ "198.51.100.0/24" ]))
   with
  | Probe_rpc.Declined reason ->
    Alcotest.(check bool) "reason carried across" true
      (String.length reason > 0)
  | Probe_rpc.Verdicts _ | Probe_rpc.Timeout ->
    Alcotest.fail "a raising answer must surface as a decline");
  Alcotest.(check int) "the frame was served" 1 (Probe_rpc.frames_served srv)

let test_garbage_frames_counted_not_fatal () =
  let ra, _, net, cl, srv = remote_setup (upstream ()) in
  Network.send net ~src:(Probe_rpc.client_node cl) ~dst:(Probe_rpc.server_node srv)
    (Bytes.of_string "not a frame");
  ignore (Network.run net);
  Alcotest.(check int) "garbage counted" 1 (Probe_rpc.bad_frames srv);
  (* the server still answers real probes afterwards *)
  match Distributed.probe ra ~from:provider_side (announcement [ "8.8.8.0/24" ]) with
  | Distributed.Verdicts _ -> ()
  | o -> Alcotest.failf "server should survive garbage, got %s" (render o)

module Faults = Dice_sim.Faults

let test_duplicating_link_at_most_once () =
  (* dup=1.0: the request arrives twice, so does each response. The
     server must execute once (dedup cache) and the client must complete
     once, counting every duplicate response as late. *)
  let ra, serving, net, cl, srv = remote_setup (upstream ()) in
  Network.set_faults net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv)
    (Faults.make ~duplicate:1.0 ());
  (match Distributed.probe ra ~from:provider_side (announcement [ "198.51.100.0/24" ]) with
  | Distributed.Verdicts [ (_, v) ] ->
    Alcotest.(check bool) "verdict intact" true v.Distributed.origin_conflict
  | o -> Alcotest.failf "expected verdicts, got %s" (render o));
  ignore (Network.run net);  (* drain the in-flight duplicates *)
  Alcotest.(check int) "two request frames arrived" 2 (Probe_rpc.frames_served srv);
  Alcotest.(check int) "the probe executed once" 1 (Probe_rpc.frames_executed srv);
  Alcotest.(check int) "the duplicate answered from the reply cache" 1
    (Probe_rpc.dedup_hits srv);
  (* the serving agent's stats did not double-count *)
  Alcotest.(check int) "agent probed once" 1 (Distributed.stats serving).Distributed.probes;
  let ep =
    match Distributed.agent_transport ra with
    | Distributed.Remote ep -> ep
    | Distributed.Local _ -> assert false
  in
  let s = Probe_rpc.stats ep in
  (* 2 requests -> 2 responses, each duplicated -> 4 arrivals: 1
     completes the call, 3 are late *)
  Alcotest.(check int) "late responses dropped and counted" 3 s.Probe_rpc.late_responses;
  Alcotest.(check int) "no retry was needed" 0 s.Probe_rpc.retries

let test_retry_hits_dedup_cache () =
  (* the slow-link scenario again, now asserting at-most-once on the
     server: the 160 ms round trip outlives the 50 ms first attempt, so
     retries re-send the same request id — the server must not re-probe *)
  let config =
    { Probe_rpc.default_config with Probe_rpc.timeout = 0.05; retries = 3 }
  in
  let ra, _, net, _, srv = remote_setup ~config ~latency:0.08 (upstream ()) in
  (match Distributed.probe ra ~from:provider_side (announcement [ "198.51.100.0/24" ]) with
  | Distributed.Verdicts _ -> ()
  | o -> Alcotest.failf "expected verdicts over the slow link, got %s" (render o));
  ignore (Network.run net);  (* let the in-flight retries reach the server *)
  let retries = (Distributed.stats ra).Distributed.retries in
  Alcotest.(check bool) "retries happened" true (retries >= 1);
  Alcotest.(check int) "every retry answered from the reply cache, none re-probed"
    retries (Probe_rpc.dedup_hits srv);
  Alcotest.(check int) "executed exactly once" 1 (Probe_rpc.frames_executed srv)

let test_server_crash_restart_recovers () =
  (* pause the server mid-federation: requests queue at the crashed
     node, the call degrades to a timeout; on restart the queued frames
     drain (executing once, deduping the retries) and their responses
     arrive late — dropped and counted, never applied to the completed
     call. A fresh probe then succeeds. *)
  let config =
    { Probe_rpc.default_config with Probe_rpc.timeout = 0.05; retries = 2 }
  in
  let ra, _, net, _, srv = remote_setup ~config (upstream ()) in
  Network.pause_node net (Probe_rpc.server_node srv);
  (match Distributed.probe ra ~from:provider_side (announcement [ "198.51.100.0/24" ]) with
  | Distributed.Timeout -> ()
  | o -> Alcotest.failf "expected a timeout while the server is down, got %s" (render o));
  Alcotest.(check int) "all three attempts queued at the crashed node" 3
    (Network.queued net (Probe_rpc.server_node srv));
  Network.resume_node net (Probe_rpc.server_node srv);
  ignore (Network.run net);
  Alcotest.(check int) "queued requests executed once after restart" 1
    (Probe_rpc.frames_executed srv);
  Alcotest.(check int) "the retries hit the reply cache" 2 (Probe_rpc.dedup_hits srv);
  let ep =
    match Distributed.agent_transport ra with
    | Distributed.Remote ep -> ep
    | Distributed.Local _ -> assert false
  in
  Alcotest.(check int) "post-restart responses dropped as late" 3
    (Probe_rpc.stats ep).Probe_rpc.late_responses;
  (* the restarted server answers fresh probes *)
  match Distributed.probe ra ~from:provider_side (announcement [ "8.8.8.0/24" ]) with
  | Distributed.Verdicts _ -> ()
  | o -> Alcotest.failf "restarted server should answer, got %s" (render o)

let test_corrupting_link_counted_not_fatal () =
  (* every frame is bit-flipped in transit: whatever each flip does —
     fails frame decode (counted malformed), fails Msg.decode (an Error
     frame comes back), or survives — no exception may escape the event
     loop and the call must return *)
  let config =
    { Probe_rpc.default_config with Probe_rpc.timeout = 0.05; retries = 3 }
  in
  let ra, _, net, cl, srv = remote_setup ~config (upstream ()) in
  Network.set_fault_seed net 42L;
  Network.set_faults net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv)
    (Faults.make ~corrupt:1.0 ());
  let outcome = Distributed.probe ra ~from:provider_side (announcement [ "198.51.100.0/24" ]) in
  ignore (render outcome);  (* any outcome, as long as it returned *)
  Alcotest.(check bool) "every frame on the link was corrupted" true
    (Network.messages_corrupted net > 0);
  let ep =
    match Distributed.agent_transport ra with
    | Distributed.Remote ep -> ep
    | Distributed.Local _ -> assert false
  in
  let s = Probe_rpc.stats ep in
  Alcotest.(check bool) "the damage was noticed and counted somewhere" true
    (Probe_rpc.bad_frames srv + s.Probe_rpc.wire_errors + s.Probe_rpc.declines
       + s.Probe_rpc.timeouts
    > 0);
  (* determinism: the same fault seed replays the same outcome *)
  let ra2, _, net2, cl2, srv2 = remote_setup ~config (upstream ()) in
  Network.set_fault_seed net2 42L;
  Network.set_faults net2 (Probe_rpc.client_node cl2) (Probe_rpc.server_node srv2)
    (Faults.make ~corrupt:1.0 ());
  let outcome2 =
    Distributed.probe ra2 ~from:provider_side (announcement [ "198.51.100.0/24" ])
  in
  Alcotest.(check string) "same seed, same outcome" (render outcome) (render outcome2);
  Alcotest.(check int) "same seed, same corruption count"
    (Network.messages_corrupted net) (Network.messages_corrupted net2)

let test_serve_rejects_remote_agent () =
  let ra, _, net, _, _ = remote_setup (upstream ()) in
  Alcotest.check_raises "no probe relays"
    (Invalid_argument "Distributed.serve: agent is already remote")
    (fun () -> ignore (Distributed.serve net ra))

(* The confidentiality assertion. In remote mode the exploring side's
   agent holds an endpoint, not a router — the only way remote state
   could reach it is over the link. So tap the link: every octet that
   crosses must decode as a Probe_wire frame, and responses must stay
   small (per-prefix verdicts), however big the remote RIB is. *)
let test_wire_tap_only_probe_frames_cross () =
  let up = upstream () in
  (* widen the private RIB so "the whole table leaked" would be obvious *)
  List.iter
    (fun i ->
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64701; 65000 + (i mod 400) ] ]
          ~next_hop:collector ()
      in
      ignore
        (Router.handle_msg up ~peer:collector
           (Msg.Update
              { withdrawn = [];
                attrs = Route.to_attrs route;
                nlri = [ Prefix.make ((i * 65536) + 0x0A000000) 24 ];
              })))
    (List.init 200 Fun.id);
  let net = Network.create () in
  let serving = local_agent ~name:"up-serving" up in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"explorer" in
  let crossed = ref [] in
  (* a tap between the domains: records and forwards every byte *)
  let client_id = Probe_rpc.client_node cl in
  let server_id = Probe_rpc.server_node srv in
  let tap =
    Network.add_node net ~name:"tap" ~handler:(fun net ~self ~from b ->
        crossed := Bytes.copy b :: !crossed;
        let dst = if from = client_id then server_id else client_id in
        Network.send net ~src:self ~dst b)
  in
  Network.connect net client_id tap ~latency:0.001;
  Network.connect net tap server_id ~latency:0.001;
  let ep = Probe_rpc.endpoint cl ~server:tap in
  let ra =
    Distributed.agent ~name:"up-remote" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Remote ep)
  in
  (* the exploring side holds no router at all *)
  (match Distributed.agent_transport ra with
  | Distributed.Remote _ -> ()
  | Distributed.Local _ -> Alcotest.fail "remote agent must not hold a router");
  List.iter
    (fun msg -> ignore (Distributed.probe ra ~from:provider_side msg))
    [ announcement [ "198.51.100.0/24" ];
      announcement [ "198.0.0.0/8"; "100.0.0.0/16" ];
      announcement [ "10.3.0.0/24" ] ];
  Alcotest.(check bool) "traffic crossed the tap" true (List.length !crossed >= 6);
  List.iter
    (fun b ->
      match Probe_wire.decode b with
      | Probe_wire.Request _ | Probe_wire.Decline _ | Probe_wire.Error _
      | Probe_wire.Heartbeat _ -> ()
      | Probe_wire.Response { verdicts; _ } ->
        Alcotest.(check bool) "responses carry per-prefix verdicts only" true
          (List.length verdicts <= 2);
        (* 14-byte header/prefix envelope + 14 bytes per verdict, with
           slack: nowhere near the ~200-route RIB behind it *)
        Alcotest.(check bool) "response size independent of remote RIB" true
          (Bytes.length b < 128)
      | exception Dice_wire.Rbuf.Truncated msg ->
        Alcotest.failf "non-frame bytes crossed the domain boundary: %s" msg)
    !crossed

let suite =
  [ ("local and remote transports answer identically", `Quick, test_local_remote_equivalence);
    ("probe_all over mixed transports keeps order", `Quick, test_probe_all_mixed_transports);
    ("two domains probe over two networks at once", `Quick, test_two_networks_two_domains);
    ("cut link degrades to a timeout after retries", `Quick, test_disconnected_times_out);
    ("checker survives a partitioned agent", `Quick, test_checker_survives_partition);
    ("slow link recovered by retry backoff", `Quick, test_slow_link_backoff_recovers);
    ("server-side exception becomes a decline", `Quick, test_server_error_becomes_decline);
    ("garbage frames counted, not fatal", `Quick, test_garbage_frames_counted_not_fatal);
    ("duplicating link: at-most-once execution", `Quick, test_duplicating_link_at_most_once);
    ("retries answered from the reply cache", `Quick, test_retry_hits_dedup_cache);
    ("server crash/restart: queued frames drain once", `Quick,
      test_server_crash_restart_recovers);
    ("corrupting link counted, not fatal", `Quick, test_corrupting_link_counted_not_fatal);
    ("serve rejects an already-remote agent", `Quick, test_serve_rejects_remote_agent);
    ("only probe frames cross the domain boundary", `Quick,
      test_wire_tap_only_probe_frames_cross)
  ]
