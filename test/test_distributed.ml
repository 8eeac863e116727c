(* Tests for cross-network exploration (Distributed): remote agents,
   narrow-interface verdicts, per-prefix attribution, parallel probe
   fan-out, the verdict cache, and the system-wide checker. *)
open Dice_inet
open Dice_bgp
open Dice_core

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Dice_topology.Threerouter.spec Dice_topology.Threerouter.Correct
let tr_customer_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"
let tr_internet_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"internet" ~toward:"provider"


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

(* An upstream with a private table: routes for 198.51.0.0/16 and
   8.8.8.0/24 learned from its collector, nothing exported to the
   provider. *)
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

let mk_agent ?(name = "up") router =
  Distributed.agent ~name ~addr:(Ipv4.of_string "10.0.2.2")
    ~explorer_addr:provider_side (Distributed.Local (Speakers.bird router))

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

let probe_verdicts agent msg =
  Distributed.verdicts (Distributed.probe agent ~from:provider_side msg)

let test_probe_conflict () =
  let up = upstream () in
  let agent = mk_agent up in
  match probe_verdicts agent (announcement [ "198.51.100.0/24" ]) with
  | [ (q, v) ] ->
    Alcotest.(check string) "verdict names its prefix" "198.51.100.0/24" (Prefix.to_string q);
    Alcotest.(check bool) "accepted" true v.Distributed.accepted;
    Alcotest.(check bool) "conflicts with the private /16" true v.Distributed.origin_conflict;
    Alcotest.(check bool) "would propagate to the collector" true
      (v.Distributed.would_propagate >= 1)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let test_probe_coverage_leak () =
  let up = upstream () in
  let agent = mk_agent up in
  (* a /8 super-block covering the remote's 198.51.0.0/16 (origin 64999) *)
  match probe_verdicts agent (announcement [ "198.0.0.0/8" ]) with
  | [ (_, v) ] ->
    Alcotest.(check bool) "no covering conflict" false v.Distributed.origin_conflict;
    Alcotest.(check bool) "covers the /16" true (v.Distributed.covers_foreign >= 1)
  | _ -> Alcotest.fail "expected one verdict"

let test_probe_no_conflict_unheld_space () =
  let up = upstream () in
  let agent = mk_agent up in
  match probe_verdicts agent (announcement [ "100.0.0.0/16" ]) with
  | [ (_, v) ] ->
    Alcotest.(check bool) "accepted" true v.Distributed.accepted;
    Alcotest.(check bool) "no conflict" false v.Distributed.origin_conflict;
    Alcotest.(check int) "covers nothing" 0 v.Distributed.covers_foreign
  | _ -> Alcotest.fail "expected one verdict"

let test_probe_same_origin_no_conflict () =
  let up = upstream () in
  let agent = mk_agent up in
  match probe_verdicts agent (announcement ~origin_asn:64888 [ "8.8.8.0/24" ]) with
  | [ (_, v) ] -> Alcotest.(check bool) "same origin" false v.Distributed.origin_conflict
  | _ -> Alcotest.fail "expected one verdict"

let test_probe_anycast_whitelisted () =
  let up = upstream () in
  let agent = mk_agent up in
  match probe_verdicts agent (announcement [ "192.88.99.0/24" ]) with
  | [ (_, v) ] ->
    Alcotest.(check bool) "whitelisted by the remote" false v.Distributed.origin_conflict
  | _ -> Alcotest.fail "expected one verdict"

(* A multi-prefix exploratory UPDATE: each verdict must be attributed to
   the NLRI prefix it concerns (the pre-fix dropped the pairing and the
   checker blamed the local seed prefix for everything). *)
let test_probe_multi_prefix_attribution () =
  let up = upstream () in
  let agent = mk_agent up in
  match probe_verdicts agent (announcement [ "198.51.100.0/24"; "100.0.0.0/16" ]) with
  | [ (q1, v1); (q2, v2) ] ->
    Alcotest.(check string) "first verdict for first NLRI prefix" "198.51.100.0/24"
      (Prefix.to_string q1);
    Alcotest.(check string) "second verdict for second NLRI prefix" "100.0.0.0/16"
      (Prefix.to_string q2);
    Alcotest.(check bool) "conflict on the covered prefix" true v1.Distributed.origin_conflict;
    Alcotest.(check bool) "no conflict on unheld space" false v2.Distributed.origin_conflict
  | vs -> Alcotest.failf "expected two verdicts, got %d" (List.length vs)

let test_probe_never_mutates_live () =
  let up = upstream () in
  let agent = mk_agent up in
  let before = Router.snapshot up in
  ignore (probe_verdicts agent (announcement [ "198.51.100.0/24" ]));
  ignore (probe_verdicts agent (announcement [ "1.2.3.0/24" ]));
  Alcotest.(check bytes) "remote live state untouched" before (Router.snapshot up)

let test_probe_non_update () =
  let up = upstream () in
  let agent = mk_agent up in
  (match Distributed.probe agent ~from:provider_side Msg.Keepalive with
  | Distributed.Declined _ -> ()
  | Distributed.Verdicts _ | Distributed.Timeout ->
    Alcotest.fail "keepalive must be declined");
  let s = Distributed.stats agent in
  Alcotest.(check int) "decline counted" 1 s.Distributed.declines;
  Alcotest.(check int) "no clone probed" 0 s.Distributed.checkpoints

let test_checkpoint_caching () =
  let up = upstream () in
  let agent = mk_agent up in
  ignore (probe_verdicts agent (announcement [ "1.1.1.0/24" ]));
  ignore (probe_verdicts agent (announcement [ "2.2.2.0/24" ]));
  Alcotest.(check int) "one checkpoint for two probes" 1
    (Distributed.stats agent).Distributed.checkpoints;
  (* remote live router moves on -> re-checkpoint *)
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64701 ] ] ~next_hop:collector ()
  in
  ignore
    (Router.handle_msg up ~peer:collector
       (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ p "3.3.3.0/24" ] }));
  ignore (probe_verdicts agent (announcement [ "4.4.4.0/24" ]));
  Alcotest.(check int) "fresh checkpoint after remote progress" 2
    (Distributed.stats agent).Distributed.checkpoints

(* ---- the verdict cache ---- *)

let test_vcache_repeated_probe_hits () =
  let up = upstream () in
  let agent = mk_agent up in
  let msg = announcement [ "198.51.100.0/24" ] in
  let first = Distributed.probe agent ~from:provider_side msg in
  Alcotest.(check int) "cold probe misses" 0 (Distributed.stats agent).Distributed.vcache_hits;
  let second = Distributed.probe agent ~from:provider_side msg in
  Alcotest.(check int) "repeat answered from the cache" 1
    (Distributed.stats agent).Distributed.vcache_hits;
  Alcotest.(check bool) "cached verdicts identical" true (first = second);
  Alcotest.(check int) "both counted as probes" 2 (Distributed.stats agent).Distributed.probes;
  (* a different claimed session is a different probe *)
  ignore (Distributed.probe agent ~from:collector msg);
  Alcotest.(check int) "different session, no hit" 1
    (Distributed.stats agent).Distributed.vcache_hits

let test_vcache_invalidated_by_remote_progress () =
  let up = upstream () in
  let agent = mk_agent up in
  let msg = announcement [ "198.51.100.0/24" ] in
  ignore (Distributed.probe agent ~from:provider_side msg);
  (* the remote live router processes a new update: cached verdicts are
     stale, the next probe must recompute *)
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64701; 64555 ] ]
      ~next_hop:collector ()
  in
  ignore
    (Router.handle_msg up ~peer:collector
       (Msg.Update
          { withdrawn = []; attrs = Route.to_attrs route; nlri = [ p "198.51.100.0/25" ] }));
  match probe_verdicts agent msg with
  | [ (_, v) ] ->
    Alcotest.(check int) "stale verdict not served" 0
      (Distributed.stats agent).Distributed.vcache_hits;
    (* the recomputed verdict sees the remote's new covering state *)
    Alcotest.(check bool) "recomputed against fresh state" true v.Distributed.origin_conflict
  | _ -> Alcotest.fail "expected one verdict"

(* ---- parallel fan-out ---- *)

let flatten_verdicts results =
  List.concat_map
    (fun outcome ->
      List.map
        (fun (q, (v : Distributed.verdict)) ->
          ( Prefix.to_string q,
            Printf.sprintf "%b|%b|%b|%d|%d" v.Distributed.accepted v.Distributed.installed
              v.Distributed.origin_conflict v.Distributed.covers_foreign
              v.Distributed.would_propagate ))
        (Distributed.verdicts outcome))
    results

let probe_workload () =
  (* two agents over distinct upstreams, repeated messages included so the
     vcache sees hits under contention *)
  let a1 = mk_agent ~name:"up1" (upstream ()) in
  let a2 = mk_agent ~name:"up2" (upstream ()) in
  let msgs =
    [ announcement [ "198.51.100.0/24" ];
      announcement [ "198.0.0.0/8" ];
      announcement [ "100.0.0.0/16" ];
      announcement [ "198.51.100.0/24"; "100.0.0.0/16" ];
      announcement [ "198.51.100.0/24" ];  (* repeat: vcache hit *)
      announcement ~origin_asn:64888 [ "8.8.8.0/24" ];
    ]
  in
  ( (a1, a2),
    List.concat_map (fun a -> List.map (fun m -> (a, provider_side, m)) msgs) [ a1; a2 ] )

let test_probe_all_parallel_matches_sequential () =
  let _, seq_reqs = probe_workload () in
  let (a1, a2), par_reqs = probe_workload () in
  let seq = Distributed.probe_all ~jobs:1 seq_reqs in
  let par = Distributed.probe_all ~jobs:4 par_reqs in
  Alcotest.(check (list (pair string string)))
    "parallel verdicts equal sequential, in request order"
    (flatten_verdicts seq) (flatten_verdicts par);
  Alcotest.(check int) "every request probed (a1)" 6 (Distributed.stats a1).Distributed.probes;
  Alcotest.(check int) "every request probed (a2)" 6 (Distributed.stats a2).Distributed.probes;
  Alcotest.(check bool) "repeated messages hit the vcache under contention" true
    ((Distributed.stats a1).Distributed.vcache_hits
     + (Distributed.stats a2).Distributed.vcache_hits
    > 0)

(* ---- the checker, directly on crafted outcomes ---- *)

let direct_ctx up =
  { Checker.pre_loc_rib = Router.loc_rib up;
    anycast = [];
    peer = Ipv4.of_string "10.0.1.2";
    peer_as = 64501;
  }

let outcome_sending ?(accepted = true) ~local_prefix msgs : Speaker.import_outcome =
  {
    Speaker.prefix = p local_prefix;
    accepted;
    installed = accepted;
    route = None;
    previous_best = None;
    outputs = msgs;
  }

let detail f k = List.assoc k f.Checker.details

let test_checker_direct_multi_prefix_attribution () =
  let up = upstream () in
  let agent = mk_agent up in
  let chk = Distributed.checker ~jobs:1 ~agents:[ agent ] in
  let outcome =
    outcome_sending ~local_prefix:"203.0.113.0/24"
      [ (Distributed.agent_addr agent, announcement [ "198.51.100.0/24"; "100.0.0.0/16" ]) ]
  in
  let faults = chk.Checker.check (direct_ctx up) outcome in
  let conflicts =
    List.filter (fun f -> f.Checker.checker = "remote-origin-conflict") faults
  in
  (match conflicts with
  | [ f ] ->
    Alcotest.(check string) "finding attributed to the conflicting remote prefix"
      "198.51.100.0/24"
      (Prefix.to_string f.Checker.prefix);
    Alcotest.(check string) "remote-prefix detail" "198.51.100.0/24" (detail f "remote-prefix");
    Alcotest.(check string) "local seed prefix kept in details" "203.0.113.0/24"
      (detail f "local-prefix")
  | l -> Alcotest.failf "expected exactly one remote conflict, got %d" (List.length l));
  (* the clean prefix must not inherit the conflicting one's verdict *)
  Alcotest.(check bool) "no finding blames the clean prefix" true
    (List.for_all
       (fun f -> not (Prefix.equal f.Checker.prefix (p "100.0.0.0/16")) || f.Checker.severity = Checker.Warning)
       faults)

let test_checker_direct_whitelist_suppression () =
  let up = upstream () in
  let agent = mk_agent up in
  let chk = Distributed.checker ~jobs:1 ~agents:[ agent ] in
  let outcome =
    outcome_sending ~local_prefix:"203.0.113.0/24"
      [ (Distributed.agent_addr agent, announcement [ "192.88.99.0/24" ]) ]
  in
  let faults = chk.Checker.check (direct_ctx up) outcome in
  Alcotest.(check int) "remote anycast whitelist suppresses criticals" 0
    (List.length (List.filter (fun f -> f.Checker.severity = Checker.Critical) faults))

let test_checker_direct_warning_only_propagation () =
  let up = upstream () in
  let agent = mk_agent up in
  let chk = Distributed.checker ~jobs:1 ~agents:[ agent ] in
  (* unheld space: accepted, no conflict, no coverage — but the upstream
     re-exports to its collector, so the leak would cross a second
     domain boundary *)
  let outcome =
    outcome_sending ~local_prefix:"203.0.113.0/24"
      [ (Distributed.agent_addr agent, announcement [ "100.0.0.0/16" ]) ]
  in
  match chk.Checker.check (direct_ctx up) outcome with
  | [ f ] ->
    Alcotest.(check string) "warning-only path" "remote-propagation" f.Checker.checker;
    Alcotest.(check bool) "severity warning" true (f.Checker.severity = Checker.Warning);
    Alcotest.(check string) "attributed to the probed prefix" "100.0.0.0/16"
      (Prefix.to_string f.Checker.prefix)
  | l -> Alcotest.failf "expected exactly the propagation warning, got %d findings" (List.length l)

let test_checker_direct_rejected_outcome_skipped () =
  let up = upstream () in
  let agent = mk_agent up in
  let chk = Distributed.checker ~jobs:1 ~agents:[ agent ] in
  let outcome =
    outcome_sending ~accepted:false ~local_prefix:"203.0.113.0/24"
      [ (Distributed.agent_addr agent, announcement [ "198.51.100.0/24" ]) ]
  in
  Alcotest.(check int) "rejected outcomes probe nothing" 0
    (List.length (chk.Checker.check (direct_ctx up) outcome));
  Alcotest.(check int) "no probe crossed the boundary" 0
    (Distributed.stats agent).Distributed.probes

let fault_keys faults =
  List.sort compare (List.map Checker.fault_key faults)

let test_checker_parallel_matches_sequential () =
  (* same crafted outcome through ~jobs:1 and ~jobs:4 over two agents:
     identical finding sets, same per-prefix attribution *)
  let mk () =
    let a1 = mk_agent ~name:"up1" (upstream ()) in
    let a2 = mk_agent ~name:"up2" (upstream ()) in
    (a1, a2)
  in
  let outcome a1 a2 =
    outcome_sending ~local_prefix:"203.0.113.0/24"
      [ (Distributed.agent_addr a1, announcement [ "198.51.100.0/24"; "100.0.0.0/16" ]);
        (Distributed.agent_addr a2, announcement [ "198.0.0.0/8" ]) ]
  in
  let s1, s2 = mk () in
  let seq =
    (Distributed.checker ~jobs:1 ~agents:[ s1; s2 ]).Checker.check (direct_ctx (upstream ()))
      (outcome s1 s2)
  in
  let p1, p2 = mk () in
  let par =
    (Distributed.checker ~jobs:4 ~agents:[ p1; p2 ]).Checker.check (direct_ctx (upstream ()))
      (outcome p1 p2)
  in
  Alcotest.(check (list string)) "same fault keys" (fault_keys seq) (fault_keys par);
  Alcotest.(check (list (list (pair string string)))) "same details, same order"
    (List.map (fun f -> f.Checker.details) seq)
    (List.map (fun f -> f.Checker.details) par);
  Alcotest.(check bool) "found the multi-prefix conflict" true
    (List.exists
       (fun f ->
         f.Checker.checker = "remote-origin-conflict"
         && Prefix.equal f.Checker.prefix (p "198.51.100.0/24"))
       seq)

(* ---- the checker, end to end on the provider ---- *)

let provider_with_customer () =
  let r =
    Router.create
      (Dice_topology.Threerouter.provider_config
         Dice_topology.Threerouter.Partially_correct)
  in
  establish r tr_customer_addr 64501;
  establish r tr_internet_addr 64700;
  let customer_route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ Dice_topology.Threerouter.customer_as ] ]
      ~next_hop:tr_customer_addr ()
  in
  List.iter
    (fun prefix ->
      ignore
        (Router.handle_msg r ~peer:tr_customer_addr
           (Msg.Update
              { Msg.withdrawn = []; attrs = Route.to_attrs customer_route; nlri = [ prefix ] })))
    Dice_topology.Threerouter.customer_prefixes;
  (r, customer_route)

let test_checker_finds_remote_conflicts () =
  let up = upstream () in
  let agent =
    Distributed.agent ~name:"up" ~addr:tr_internet_addr
      ~explorer_addr:provider_side (Distributed.Local (Speakers.bird up))
  in
  let provider, customer_route = provider_with_customer () in
  let cfg =
    { Orchestrator.checkers = [ Hijack.checker ];
      federation = Orchestrator.federation ~agents:[ agent ] ~probe_jobs:1;
      exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Dice_concolic.Explorer.default_config with
              Dice_concolic.Explorer.max_runs = 256;
              max_depth = 96;
            };
        };
    }
  in
  let dice = Orchestrator.create ~cfg (Speakers.bird provider) in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route:customer_route;
  let report = Orchestrator.explore dice in
  let remote =
    List.filter
      (fun (f : Checker.fault) -> f.Checker.checker = "remote-origin-conflict")
      report.Orchestrator.faults
  in
  let local =
    List.filter
      (fun (f : Checker.fault) -> f.Checker.checker = "origin-hijack")
      report.Orchestrator.faults
  in
  (* the conflicting state lives only at the remote: local checking is
     blind, the narrow interface is not *)
  Alcotest.(check int) "no local origin conflicts possible" 0 (List.length local);
  Alcotest.(check bool) "remote conflicts found" true (List.length remote > 0);
  Alcotest.(check bool) "probes happened" true
    ((Distributed.stats agent).Distributed.probes > 0);
  (* every remote finding names the remote prefix it concerns *)
  Alcotest.(check bool) "remote-prefix detail present" true
    (List.for_all
       (fun (f : Checker.fault) -> List.mem_assoc "remote-prefix" f.Checker.details)
       remote);
  (* live routers untouched *)
  Alcotest.(check bool) "remote live untouched" true
    ((Distributed.stats agent).Distributed.checkpoints >= 1)

let test_checker_ignores_unknown_destinations () =
  let up = upstream () in
  let agent =
    Distributed.agent ~name:"up" ~addr:(Ipv4.of_string "9.9.9.9")
      ~explorer_addr:provider_side (Distributed.Local (Speakers.bird up))
  in
  let provider, customer_route = provider_with_customer () in
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.checkers = [];
      Orchestrator.federation = Orchestrator.federation ~agents:[ agent ] ~probe_jobs:1;
    }
  in
  let dice = Orchestrator.create ~cfg (Speakers.bird provider) in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route:customer_route;
  ignore (Orchestrator.explore dice);
  Alcotest.(check int) "no probe reaches a mismatched address" 0
    (Distributed.stats agent).Distributed.probes

let suite =
  [ ("probe: conflict with private RIB", `Quick, test_probe_conflict);
    ("probe: coverage leak through a super-block", `Quick, test_probe_coverage_leak);
    ("probe: unheld space accepted, no conflict", `Quick, test_probe_no_conflict_unheld_space);
    ("probe: same origin clean", `Quick, test_probe_same_origin_no_conflict);
    ("probe: remote anycast whitelist", `Quick, test_probe_anycast_whitelisted);
    ("probe: multi-prefix verdicts keep their pairing", `Quick,
      test_probe_multi_prefix_attribution);
    ("probe: never mutates the remote live router", `Quick, test_probe_never_mutates_live);
    ("probe: non-update declined", `Quick, test_probe_non_update);
    ("checkpoint caching", `Quick, test_checkpoint_caching);
    ("vcache: repeated probe answered from cache", `Quick, test_vcache_repeated_probe_hits);
    ("vcache: invalidated when the remote moves on", `Quick,
      test_vcache_invalidated_by_remote_progress);
    ("probe_all: parallel matches sequential", `Quick,
      test_probe_all_parallel_matches_sequential);
    ("checker: multi-prefix attribution (direct)", `Quick,
      test_checker_direct_multi_prefix_attribution);
    ("checker: remote whitelist suppression (direct)", `Quick,
      test_checker_direct_whitelist_suppression);
    ("checker: warning-only propagation path (direct)", `Quick,
      test_checker_direct_warning_only_propagation);
    ("checker: rejected outcomes skipped (direct)", `Quick,
      test_checker_direct_rejected_outcome_skipped);
    ("checker: parallel matches sequential", `Quick, test_checker_parallel_matches_sequential);
    ("checker finds remote-only conflicts", `Slow, test_checker_finds_remote_conflicts);
    ("checker ignores unknown destinations", `Quick, test_checker_ignores_unknown_destinations)
  ]
