(* Tests for config-change validation: a proposed config is explored
   against a live provider's observed announcements and judged safe,
   ineffective or harmful, without touching the live router. *)
open Dice_inet
open Dice_bgp
open Dice_core
module Threerouter = Dice_topology.Threerouter

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Threerouter.spec Threerouter.Correct
let tr_customer_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"
let tr_internet_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"internet" ~toward:"provider"

let establish router peer remote_as =
  ignore (Router.handle_event router ~peer Fsm.Manual_start);
  ignore (Router.handle_event router ~peer Fsm.Tcp_connected);
  ignore
    (Router.handle_msg router ~peer
       (Msg.Open
          { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90; bgp_id = peer;
            capabilities = [ Msg.Cap_as4 remote_as ] }));
  ignore (Router.handle_msg router ~peer Msg.Keepalive)

let provider_cfg filtering = Threerouter.provider_config filtering

let live_provider filtering =
  let r = Router.create (provider_cfg filtering) in
  establish r tr_customer_addr Threerouter.customer_as;
  establish r tr_internet_addr Threerouter.internet_as;
  let customer_route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ Threerouter.customer_as ] ]
      ~next_hop:tr_customer_addr ()
  in
  List.iter
    (fun prefix ->
      ignore
        (Router.handle_msg r ~peer:tr_customer_addr
           (Msg.Update
              { Msg.withdrawn = []; attrs = Route.to_attrs customer_route; nlri = [ prefix ] })))
    Threerouter.customer_prefixes;
  let trace =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with Dice_trace.Gen.n_prefixes = 1_200 }
  in
  ignore
    (Dice_trace.Replay.feed_dump r ~peer:tr_internet_addr
       ~next_hop:tr_internet_addr trace);
  (r, customer_route)

let seeds_for route =
  List.map
    (fun prefix ->
      { Orchestrator.tag = "s-" ^ Prefix.to_string prefix;
        peer = tr_customer_addr;
        prefix;
        route;
      })
    Threerouter.customer_prefixes

let vcfg =
  { Orchestrator.default_cfg with
    Orchestrator.exploration =
      { Orchestrator.default_exploration with
        Orchestrator.explorer =
          { Dice_concolic.Explorer.default_config with
            Dice_concolic.Explorer.max_runs = 128;
            max_depth = 96;
          };
      };
  }

let test_validate_good_fix_safe () =
  let live, route = live_provider Threerouter.Partially_correct in
  let proposed = provider_cfg Threerouter.Correct in
  let c = Validate.config_change ~cfg:vcfg ~live:(Speakers.bird live) ~proposed:(Speaker.Config proposed) ~seeds:(seeds_for route) () in
  Alcotest.(check bool) "fixes something" true (List.length c.Validate.fixed > 0);
  Alcotest.(check int) "introduces nothing" 0 (List.length c.Validate.introduced);
  Alcotest.(check int) "breaks nothing" 0 (List.length c.Validate.regressions);
  Alcotest.(check bool) "verdict" true (Validate.verdict c = `Safe)

let test_validate_noop_ineffective () =
  let live, route = live_provider Threerouter.Partially_correct in
  let proposed = provider_cfg Threerouter.Partially_correct in
  let c = Validate.config_change ~cfg:vcfg ~live:(Speakers.bird live) ~proposed:(Speaker.Config proposed) ~seeds:(seeds_for route) () in
  Alcotest.(check bool) "verdict" true (Validate.verdict c = `Ineffective);
  Alcotest.(check bool) "same faults persist" true (List.length c.Validate.persisting > 0)

let test_validate_overblocking_harmful () =
  let live, route = live_provider Threerouter.Partially_correct in
  (* a proposed config whose customer import drops everything: closes the
     leaks but breaks the observed announcements *)
  let proposed =
    Config_parser.parse
      (Printf.sprintf
         {|
         router id 10.0.2.1;
         local as %d;
         protocol bgp customer { neighbor 10.0.1.2 as %d; import none; export all; }
         protocol bgp internet { neighbor 10.0.2.2 as %d; import all; export all; }
         anycast [ 192.88.99.0/24 ];
         |}
         Threerouter.provider_as Threerouter.customer_as Threerouter.internet_as)
  in
  let c = Validate.config_change ~cfg:vcfg ~live:(Speakers.bird live) ~proposed:(Speaker.Config proposed) ~seeds:(seeds_for route) () in
  Alcotest.(check bool) "regressions found" true (List.length c.Validate.regressions > 0);
  Alcotest.(check bool) "verdict" true (Validate.verdict c = `Harmful)

let test_validate_live_untouched () =
  let live, route = live_provider Threerouter.Partially_correct in
  let before = Router.snapshot live in
  let proposed = provider_cfg Threerouter.Correct in
  ignore (Validate.config_change ~cfg:vcfg ~live:(Speakers.bird live) ~proposed:(Speaker.Config proposed) ~seeds:(seeds_for route) ());
  Alcotest.(check bytes) "live unchanged" before (Router.snapshot live)

let test_validate_peer_change_rejected () =
  let live, route = live_provider Threerouter.Partially_correct in
  let proposed =
    Config_parser.parse
      "router id 10.0.2.1; local as 64510;\n\
       protocol bgp other { neighbor 1.2.3.4 as 999; import all; export all; }"
  in
  match Validate.config_change ~cfg:vcfg ~live:(Speakers.bird live) ~proposed:(Speaker.Config proposed) ~seeds:(seeds_for route) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of a peer-set change"

let suite =
  [ ("validate: good fix is safe", `Slow, test_validate_good_fix_safe);
    ("validate: no-op is ineffective", `Slow, test_validate_noop_ineffective);
    ("validate: over-blocking is harmful", `Slow, test_validate_overblocking_harmful);
    ("validate: live untouched", `Slow, test_validate_live_untouched);
    ("validate: peer change rejected", `Quick, test_validate_peer_change_rejected)
  ]
