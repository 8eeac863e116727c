(* Edge-case tests across modules: AS2 sessions, split-horizon corners,
   export filters, trace withdraw bookkeeping, orchestrator seed limits. *)
open Dice_inet
open Dice_bgp

let p = Prefix.of_string
let ip = Ipv4.of_string

(* ---- as4 = false end to end ---- *)

let test_as2_session_roundtrip () =
  (* a session without the AS4 capability uses 2-byte path encoding both
     ways; 16-bit ASNs survive *)
  let u =
    Msg.Update
      { withdrawn = [];
        attrs =
          [ Attr.Origin Attr.Igp;
            Attr.As_path [ Asn.Path.Seq [ 65001; 65002 ] ];
            Attr.Next_hop (ip "10.0.0.1") ];
        nlri = [ p "10.0.0.0/8" ];
      }
  in
  match Msg.decode ~as4:false (Msg.encode ~as4:false u) with
  | Ok u' -> Alcotest.(check bool) "roundtrip" true (u = u')
  | Error e -> Alcotest.failf "decode: %s" (Msg.error_to_string e)

let test_open_without_as4_drops_capability () =
  let r =
    Router.create
      (Config_parser.parse
         "router id 1.1.1.1; local as 65001;\n\
          protocol bgp x { neighbor 2.2.2.2 as 65002; import all; export all; }")
  in
  ignore (Router.handle_event r ~peer:(ip "2.2.2.2") Fsm.Manual_start);
  ignore (Router.handle_event r ~peer:(ip "2.2.2.2") Fsm.Tcp_connected);
  (* peer OPEN without Cap_as4 *)
  ignore
    (Router.handle_msg r ~peer:(ip "2.2.2.2")
       (Msg.Open
          { Msg.version = 4; my_as = 65002; hold_time = 90; bgp_id = ip "2.2.2.2";
            capabilities = [] }));
  ignore (Router.handle_msg r ~peer:(ip "2.2.2.2") Msg.Keepalive);
  Alcotest.(check (list string)) "established without AS4" [ "2.2.2.2" ]
    (List.map Ipv4.to_string (Router.established_peers r))

(* ---- export filter behavior ---- *)

let exporting_router export_clause =
  let cfg =
    Config_parser.parse
      (Printf.sprintf
         {|
         router id 10.0.0.1;
         local as 65001;
         filter no_long { if net.len > 16 then reject; accept; }
         protocol static { route 10.1.0.0/16 via 10.0.0.1; route 10.2.3.0/24 via 10.0.0.1; }
         protocol bgp out { neighbor 10.0.0.2 as 65002; import all; %s }
         |}
         export_clause)
  in
  let r = Router.create cfg in
  ignore (Router.handle_event r ~peer:(ip "10.0.0.2") Fsm.Manual_start);
  ignore (Router.handle_event r ~peer:(ip "10.0.0.2") Fsm.Tcp_connected);
  ignore
    (Router.handle_msg r ~peer:(ip "10.0.0.2")
       (Msg.Open
          { Msg.version = 4; my_as = 65002; hold_time = 90; bgp_id = ip "10.0.0.2";
            capabilities = [ Msg.Cap_as4 65002 ] }));
  let outs = Router.handle_msg r ~peer:(ip "10.0.0.2") Msg.Keepalive in
  let announced =
    List.filter_map
      (function
        | Router.To_peer (_, Msg.Update u) -> Some u.Msg.nlri
        | _ -> None)
      outs
    |> List.concat
    |> List.map Prefix.to_string
    |> List.sort compare
  in
  (r, announced)

let test_export_filter_applies () =
  let _, announced = exporting_router "export filter no_long;" in
  Alcotest.(check (list string)) "only the /16 crosses" [ "10.1.0.0/16" ] announced

let test_export_none () =
  let _, announced = exporting_router "export none;" in
  Alcotest.(check (list string)) "nothing crosses" [] announced

let test_export_all () =
  let _, announced = exporting_router "export all;" in
  Alcotest.(check (list string)) "both cross" [ "10.1.0.0/16"; "10.2.3.0/24" ] announced

let test_adj_rib_out_tracks_exports () =
  (* what a session was sent decides what it is told next: a new best
     whose advertisement is unchanged (eBGP strips the MED) sends
     nothing, and a withdrawal reaches it only for what it was sent *)
  let r =
    Router.create
      (Config_parser.parse
         {|
         router id 10.0.0.1;
         local as 65001;
         filter no_long { if net.len > 16 then reject; accept; }
         protocol bgp src { neighbor 10.0.0.3 as 65003; import all; export none; }
         protocol bgp out { neighbor 10.0.0.2 as 65002; import all; export filter no_long; }
         |})
  in
  List.iter
    (fun (peer, asn) ->
      ignore (Router.handle_event r ~peer Fsm.Manual_start);
      ignore (Router.handle_event r ~peer Fsm.Tcp_connected);
      ignore
        (Router.handle_msg r ~peer
           (Msg.Open
              { Msg.version = 4; my_as = asn; hold_time = 90; bgp_id = peer;
                capabilities = [ Msg.Cap_as4 asn ] }));
      ignore (Router.handle_msg r ~peer Msg.Keepalive))
    [ (ip "10.0.0.3", 65003); (ip "10.0.0.2", 65002) ];
  let nets = [ p "10.1.0.0/16"; p "10.2.3.0/24" ] in
  let told u =
    List.filter_map
      (function
        | Router.To_peer (dst, Msg.Update u) when dst = ip "10.0.0.2" ->
          Some (List.map Prefix.to_string u.Msg.nlri, List.map Prefix.to_string u.Msg.withdrawn)
        | _ -> None)
      (Router.handle_msg r ~peer:(ip "10.0.0.3") (Msg.Update u))
  in
  let announce med =
    told
      { withdrawn = [];
        attrs =
          [ Attr.Origin Attr.Igp; Attr.As_path [ Asn.Path.Seq [ 65003 ] ];
            Attr.Next_hop (ip "10.0.0.3"); Attr.Med med ];
        nlri = nets }
  in
  let pair = Alcotest.(list (pair (list string) (list string))) in
  Alcotest.check pair "only the /16 is sent" [ ([ "10.1.0.0/16" ], []) ] (announce 5);
  Alcotest.check pair "a new MED sends nothing" [] (announce 7);
  Alcotest.check pair "only the /16 is withdrawn" [ ([], [ "10.1.0.0/16" ]) ]
    (told { withdrawn = nets; attrs = []; nlri = [] })

(* ---- trace withdraw bookkeeping ---- *)

let test_gen_withdraw_then_reannounce () =
  (* every withdraw of a prefix is followed (if anything) by an announce
     before any second withdraw of the same prefix *)
  let t =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with
        Dice_trace.Gen.n_prefixes = 200;
        duration = 600.0;
        update_rate = 1.0;
        withdraw_fraction = 0.5;
      }
  in
  let withdrawn : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let ok = ref true in
  Array.iter
    (fun ev ->
      match ev with
      | Dice_trace.Gen.Withdraw { prefix; _ } ->
        if Hashtbl.mem withdrawn prefix then ok := false;
        Hashtbl.replace withdrawn prefix ()
      | Dice_trace.Gen.Announce { entry; _ } ->
        Hashtbl.remove withdrawn entry.Dice_trace.Gen.prefix)
    t.Dice_trace.Gen.events;
  Alcotest.(check bool) "no double withdraw" true !ok

let test_replay_events_leave_consistent_table () =
  (* after replaying dump + events, the router's table equals the dump
     minus currently-withdrawn prefixes (plus re-announcements) *)
  let cfg =
    Config_parser.parse
      "router id 10.0.2.1; local as 64510;\n\
       protocol bgp i { neighbor 10.0.2.2 as 64700; import all; export none; }"
  in
  let r = Router.create cfg in
  let peer = ip "10.0.2.2" in
  ignore (Router.handle_event r ~peer Fsm.Manual_start);
  ignore (Router.handle_event r ~peer Fsm.Tcp_connected);
  ignore
    (Router.handle_msg r ~peer
       (Msg.Open
          { Msg.version = 4; my_as = 64700; hold_time = 90; bgp_id = peer;
            capabilities = [ Msg.Cap_as4 64700 ] }));
  ignore (Router.handle_msg r ~peer Msg.Keepalive);
  let t =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with
        Dice_trace.Gen.n_prefixes = 300;
        duration = 300.0;
        update_rate = 1.0;
        withdraw_fraction = 0.4;
      }
  in
  ignore (Dice_trace.Replay.feed_dump r ~peer ~next_hop:peer t);
  ignore (Dice_trace.Replay.feed_events r ~peer ~next_hop:peer t);
  (* recompute expected live set *)
  let live : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 512 in
  Array.iter
    (fun (e : Dice_trace.Gen.entry) -> Hashtbl.replace live e.Dice_trace.Gen.prefix ())
    t.Dice_trace.Gen.dump;
  Array.iter
    (fun ev ->
      match ev with
      | Dice_trace.Gen.Withdraw { prefix; _ } -> Hashtbl.remove live prefix
      | Dice_trace.Gen.Announce { entry; _ } ->
        Hashtbl.replace live entry.Dice_trace.Gen.prefix ())
    t.Dice_trace.Gen.events;
  Alcotest.(check int) "table matches expected live set" (Hashtbl.length live)
    (Rib.Loc.cardinal (Router.loc_rib r))

(* ---- orchestrator seed handling ---- *)

let test_orchestrator_max_seeds () =
  let r =
    Router.create
      (Config_parser.parse
         "router id 1.1.1.1; local as 65001;\n\
          protocol bgp x { neighbor 2.2.2.2 as 65002; import all; export all; }")
  in
  ignore (Router.handle_event r ~peer:(ip "2.2.2.2") Fsm.Manual_start);
  ignore (Router.handle_event r ~peer:(ip "2.2.2.2") Fsm.Tcp_connected);
  ignore
    (Router.handle_msg r ~peer:(ip "2.2.2.2")
       (Msg.Open
          { Msg.version = 4; my_as = 65002; hold_time = 90; bgp_id = ip "2.2.2.2";
            capabilities = [ Msg.Cap_as4 65002 ] }));
  ignore (Router.handle_msg r ~peer:(ip "2.2.2.2") Msg.Keepalive);
  let cfg =
    { Dice_core.Orchestrator.default_cfg with
      Dice_core.Orchestrator.exploration =
        { Dice_core.Orchestrator.default_exploration with
          Dice_core.Orchestrator.max_seeds = 2;
          explorer =
            { Dice_concolic.Explorer.default_config with Dice_concolic.Explorer.max_runs = 4 };
        };
    }
  in
  let dice = Dice_core.Orchestrator.create ~cfg (Dice_core.Speakers.bird r) in
  let route = Route.make ~as_path:[ Asn.Path.Seq [ 65002 ] ] ~next_hop:(ip "2.2.2.2") () in
  for i = 0 to 4 do
    Dice_core.Orchestrator.observe dice ~peer:(ip "2.2.2.2")
      ~prefix:(Prefix.make (i lsl 24) 8) ~route
  done;
  Alcotest.(check int) "five pending" 5 (Dice_core.Orchestrator.pending_seeds dice);
  let report = Dice_core.Orchestrator.explore dice in
  Alcotest.(check int) "only the cap explored" 2
    (List.length report.Dice_core.Orchestrator.seed_reports);
  Alcotest.(check int) "queue drained" 0 (Dice_core.Orchestrator.pending_seeds dice)

let suite =
  [ ("as2 session roundtrip", `Quick, test_as2_session_roundtrip);
    ("open without AS4", `Quick, test_open_without_as4_drops_capability);
    ("export filter applies", `Quick, test_export_filter_applies);
    ("export none", `Quick, test_export_none);
    ("export all", `Quick, test_export_all);
    ("adj-rib-out tracks exports", `Quick, test_adj_rib_out_tracks_exports);
    ("gen: no double withdraw", `Quick, test_gen_withdraw_then_reannounce);
    ("replay leaves consistent table", `Quick, test_replay_events_leave_consistent_table);
    ("orchestrator max_seeds", `Quick, test_orchestrator_max_seeds)
  ]
