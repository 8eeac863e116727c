(* Tests for the trace substrate: AS graph, generation, MRT format,
   replay. *)
open Dice_inet
module Rng = Dice_util.Rng
module Asgraph = Dice_trace.Asgraph
module Gen = Dice_trace.Gen
module Mrt = Dice_trace.Mrt
module Replay = Dice_trace.Replay

let small_params =
  { Gen.default_params with Gen.n_prefixes = 300; n_ases = 80; duration = 120.0 }

(* ---- Asgraph ---- *)

let graph () = Asgraph.generate ~rng:(Rng.create 5L) ~n_ases:100 ()

let test_graph_shape () =
  let g = graph () in
  Alcotest.(check int) "n" 100 (Asgraph.n_ases g);
  Alcotest.(check int) "asns dense" 100 (Array.length (Asgraph.asns g));
  Alcotest.(check int) "base" Asgraph.base_asn (Asgraph.asns g).(0)

let test_graph_tier1_no_providers () =
  let g = graph () in
  Alcotest.(check bool) "tier1" true (Asgraph.is_tier1 g Asgraph.base_asn);
  Alcotest.(check (list int)) "no providers" [] (Asgraph.providers g Asgraph.base_asn)

let test_graph_everyone_has_provider () =
  let g = graph () in
  Array.iter
    (fun asn ->
      if not (Asgraph.is_tier1 g asn) then
        Alcotest.(check bool)
          (Printf.sprintf "AS%d has a provider" asn)
          true
          (Asgraph.providers g asn <> []))
    (Asgraph.asns g)

let test_graph_degree_positive () =
  let g = graph () in
  Array.iter
    (fun asn -> Alcotest.(check bool) "degree > 0" true (Asgraph.degree g asn > 0))
    (Asgraph.asns g)

let test_graph_unknown_as_rejected () =
  let g = graph () in
  Alcotest.check_raises "unknown" (Invalid_argument "Asgraph: unknown AS 1") (fun () ->
      ignore (Asgraph.providers g 1))

let test_path_shape () =
  let g = graph () in
  let rng = Rng.create 6L in
  for _ = 1 to 50 do
    let origin = Asgraph.random_as g ~rng in
    let path = Asgraph.path_from_origin g ~rng ~collector_as:64700 ~origin in
    (match path with
    | collector :: _ -> Alcotest.(check int) "collector first" 64700 collector
    | [] -> Alcotest.fail "empty path");
    (match List.rev path with
    | last :: _ -> Alcotest.(check int) "origin last" origin last
    | [] -> ());
    (* loop-free *)
    Alcotest.(check int) "no duplicates" (List.length path)
      (List.length (List.sort_uniq compare path))
  done

(* ---- Gen ---- *)

let test_gen_counts () =
  let t = Gen.generate small_params in
  Alcotest.(check int) "dump size" 300 (Array.length t.Gen.dump);
  Alcotest.(check bool) "has events" true (Array.length t.Gen.events > 0);
  Alcotest.(check (float 0.0)) "duration" 120.0 t.Gen.duration

let test_gen_deterministic () =
  let a = Gen.generate small_params and b = Gen.generate small_params in
  Alcotest.(check bool) "same dump" true (a.Gen.dump = b.Gen.dump);
  Alcotest.(check bool) "same events" true (a.Gen.events = b.Gen.events)

let test_gen_seed_sensitive () =
  let a = Gen.generate small_params in
  let b = Gen.generate { small_params with Gen.seed = 43L } in
  Alcotest.(check bool) "different" true (a.Gen.dump <> b.Gen.dump)

let test_gen_dump_sorted_and_valid () =
  let t = Gen.generate small_params in
  let ok = ref true in
  Array.iteri
    (fun i (e : Gen.entry) ->
      if i > 0 then
        if Prefix.compare t.Gen.dump.(i - 1).Gen.prefix e.Gen.prefix > 0 then ok := false;
      (match e.Gen.as_path with
      | collector :: _ -> if collector <> small_params.Gen.collector_as then ok := false
      | [] -> ok := false);
      let len = Prefix.len e.Gen.prefix in
      if len < 8 || len > 24 then ok := false)
    t.Gen.dump;
  Alcotest.(check bool) "sorted, collector-first, len in [8,24]" true !ok

let test_gen_events_chronological () =
  let t = Gen.generate small_params in
  let ok = ref true in
  Array.iteri
    (fun i ev ->
      if i > 0 && Gen.event_time t.Gen.events.(i - 1) > Gen.event_time ev then ok := false;
      if Gen.event_time ev > t.Gen.duration then ok := false)
    t.Gen.events;
  Alcotest.(check bool) "chronological, within duration" true !ok

let test_gen_origin_of () =
  let t = Gen.generate small_params in
  let e = t.Gen.dump.(0) in
  Alcotest.(check (option int)) "matches path tail"
    (match List.rev e.Gen.as_path with
    | last :: _ -> Some last
    | [] -> None)
    (Gen.origin_of t e.Gen.prefix)

let test_gen_to_updates () =
  let t = Gen.generate small_params in
  let msgs = Gen.to_updates t ~peer_as:64700 ~next_hop:(Ipv4.of_string "10.0.2.2") in
  Alcotest.(check int) "one per entry" 300 (List.length msgs);
  match msgs with
  | Dice_bgp.Msg.Update u :: _ ->
    Alcotest.(check int) "one nlri" 1 (List.length u.Dice_bgp.Msg.nlri);
    Alcotest.(check bool) "decodable route" true
      (Result.is_ok (Dice_bgp.Route.of_attrs u.Dice_bgp.Msg.attrs))
  | _ -> Alcotest.fail "expected updates"

(* ---- Mrt ---- *)

let test_mrt_roundtrip () =
  let t = Gen.generate small_params in
  let t' = Mrt.read (Mrt.write t) in
  Alcotest.(check int) "collector" t.Gen.collector_as t'.Gen.collector_as;
  Alcotest.(check bool) "dump preserved" true (t.Gen.dump = t'.Gen.dump);
  Alcotest.(check bool) "events preserved" true (t.Gen.events = t'.Gen.events);
  Alcotest.(check (float 0.001)) "duration" t.Gen.duration t'.Gen.duration

let test_mrt_corrupt_rejected () =
  (match Mrt.read (Bytes.of_string "BOGUS") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  let t = Gen.generate { small_params with Gen.n_prefixes = 5 } in
  let b = Mrt.write t in
  let truncated = Bytes.sub b 0 (Bytes.length b - 3) in
  (match Mrt.read truncated with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected truncation error");
  (match Mrt.read (Bytes.cat b (Bytes.make 1 '\000')) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected trailing-byte rejection");
  (* a dump count of 0x00FFFFFF (bytes 20-23, after magic, collector and
     duration) must fail before anything is sized by it *)
  let b = Mrt.write (Gen.generate { small_params with Gen.n_prefixes = 20 }) in
  Bytes.set_int32_be b 20 0x00FFFFFFl;
  let before = Gc.allocated_bytes () in
  (match Mrt.read b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected oversized-count rejection");
  Alcotest.(check bool) "rejected without a count-sized allocation" true
    (Gc.allocated_bytes () -. before < 1e6)

let test_mrt_file_io () =
  let t = Gen.generate { small_params with Gen.n_prefixes = 20 } in
  let path = Filename.temp_file "dice_trace" ".mrt" in
  Mrt.save path t;
  let t' = Mrt.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (t.Gen.dump = t'.Gen.dump)

(* ---- Replay ---- *)

let loaded_router () =
  let cfg =
    Dice_bgp.Config_parser.parse
      {|
      router id 10.0.2.1;
      local as 64510;
      protocol bgp internet { neighbor 10.0.2.2 as 64700; import all; export none; }
      |}
  in
  let r = Dice_bgp.Router.create cfg in
  let peer = Ipv4.of_string "10.0.2.2" in
  ignore (Dice_bgp.Router.handle_event r ~peer Dice_bgp.Fsm.Manual_start);
  ignore (Dice_bgp.Router.handle_event r ~peer Dice_bgp.Fsm.Tcp_connected);
  ignore
    (Dice_bgp.Router.handle_msg r ~peer
       (Dice_bgp.Msg.Open
          { Dice_bgp.Msg.version = 4; my_as = 64700; hold_time = 90; bgp_id = peer;
            capabilities = [ Dice_bgp.Msg.Cap_as4 64700 ] }));
  ignore (Dice_bgp.Router.handle_msg r ~peer Dice_bgp.Msg.Keepalive);
  (r, peer)

let test_replay_feed_dump () =
  let r, peer = loaded_router () in
  let t = Gen.generate small_params in
  let progress = Replay.feed_dump r ~peer ~next_hop:peer t in
  Alcotest.(check int) "all sent" 300 progress.Replay.updates_sent;
  Alcotest.(check bool) "all processed" true (progress.Replay.updates_processed >= 300);
  (* distinct prefixes in the dump end up in the table *)
  let distinct =
    Array.to_list t.Gen.dump
    |> List.map (fun (e : Gen.entry) -> e.Gen.prefix)
    |> List.sort_uniq Prefix.compare
  in
  Alcotest.(check int) "table size" (List.length distinct)
    (Dice_bgp.Rib.Loc.cardinal (Dice_bgp.Router.loc_rib r))

let test_replay_feed_events () =
  let r, peer = loaded_router () in
  let t = Gen.generate small_params in
  ignore (Replay.feed_dump r ~peer ~next_hop:peer t);
  let progress = Replay.feed_events r ~peer ~next_hop:peer t in
  Alcotest.(check int) "all events sent" (Array.length t.Gen.events)
    progress.Replay.updates_sent

let test_replay_on_update_hook () =
  let r, peer = loaded_router () in
  let t = Gen.generate { small_params with Gen.n_prefixes = 50 } in
  let called = ref 0 in
  ignore (Replay.feed_dump ~on_update:(fun _ -> incr called) r ~peer ~next_hop:peer t);
  Alcotest.(check int) "hook per update" 50 !called

let suite =
  [ ("graph shape", `Quick, test_graph_shape);
    ("tier1 has no providers", `Quick, test_graph_tier1_no_providers);
    ("everyone has a provider", `Quick, test_graph_everyone_has_provider);
    ("degrees positive", `Quick, test_graph_degree_positive);
    ("unknown AS rejected", `Quick, test_graph_unknown_as_rejected);
    ("path shape", `Quick, test_path_shape);
    ("gen counts", `Quick, test_gen_counts);
    ("gen deterministic", `Quick, test_gen_deterministic);
    ("gen seed-sensitive", `Quick, test_gen_seed_sensitive);
    ("gen dump valid", `Quick, test_gen_dump_sorted_and_valid);
    ("gen events chronological", `Quick, test_gen_events_chronological);
    ("gen origin_of", `Quick, test_gen_origin_of);
    ("gen to_updates", `Quick, test_gen_to_updates);
    ("mrt roundtrip", `Quick, test_mrt_roundtrip);
    ("mrt corrupt rejected", `Quick, test_mrt_corrupt_rejected);
    ("mrt file io", `Quick, test_mrt_file_io);
    ("replay feed_dump", `Quick, test_replay_feed_dump);
    ("replay feed_events", `Quick, test_replay_feed_events);
    ("replay on_update hook", `Quick, test_replay_on_update_hook)
  ]
