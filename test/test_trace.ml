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

let graph () = Asgraph.generate ~rng:(Rng.create 5L) 100

(* the tier-1 clique is the first [min 8 (max 1 (n / 4))] nodes *)
let n_tier1 = 8

let test_graph_shape () =
  let g = graph () in
  let links = Asgraph.links g in
  let clique = List.filteri (fun k _ -> k < n_tier1 * (n_tier1 - 1) / 2) links in
  List.iter
    (function
      | Asgraph.Peering (a, b) ->
        Alcotest.(check bool) "clique peers are tier-1s" true (a < n_tier1 && b < n_tier1)
      | Asgraph.Transit _ -> Alcotest.fail "transit inside the tier-1 clique")
    clique;
  Alcotest.(check int) "a full mesh" 28 (List.length (List.sort_uniq compare clique));
  (* the transit links are exactly the provider lists, providers first *)
  List.iter
    (function
      | Asgraph.Transit { customer; provider } ->
        Alcotest.(check bool) "provider precedes customer" true (provider < customer);
        Alcotest.(check bool) "listed provider" true
          (List.mem provider (Asgraph.providers g customer))
      | Asgraph.Peering _ -> ())
    links;
  let transits =
    List.length (List.filter (function Asgraph.Transit _ -> true | _ -> false) links)
  in
  let listed = ref 0 in
  for i = 0 to 99 do
    listed := !listed + List.length (Asgraph.providers g i)
  done;
  Alcotest.(check int) "one transit link per listed provider" transits !listed

let test_graph_tier1_no_providers () =
  let g = graph () in
  for i = 0 to n_tier1 - 1 do
    Alcotest.(check (list int)) (Printf.sprintf "tier-1 %d has no provider" i) []
      (Asgraph.providers g i)
  done

let test_graph_everyone_has_provider () =
  let g = graph () in
  for i = n_tier1 to 99 do
    Alcotest.(check bool) (Printf.sprintf "node %d has a provider" i) true
      (Asgraph.providers g i <> [])
  done

let test_graph_unknown_as_rejected () =
  let g = graph () in
  match Asgraph.providers g 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "node 100 of a 100-node graph accepted"

let test_path_shape () =
  let g = graph () in
  let rng = Rng.create 6L in
  for _ = 1 to 200 do
    let origin = Asgraph.random_node g ~rng in
    let chain = Asgraph.climb g ~rng origin in
    (match chain with
    | top :: _ -> Alcotest.(check bool) "starts at a tier-1" true (top < n_tier1)
    | [] -> Alcotest.fail "empty chain");
    Alcotest.(check int) "ends at the origin" origin (List.nth chain (List.length chain - 1));
    (* each hop down is a customer of the hop above *)
    let rec hops = function
      | up :: (down :: _ as rest) ->
        Alcotest.(check bool) "climbs to a provider" true (List.mem up (Asgraph.providers g down));
        hops rest
      | _ -> ()
    in
    hops chain;
    Alcotest.(check int) "no loops" (List.length chain)
      (List.length (List.sort_uniq compare chain))
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

(* A stand-in for a RouteViews dump must not be one origin's table over
   one path length. *)
let test_gen_many_origins () =
  let t = Gen.generate { Gen.default_params with Gen.n_prefixes = 2_000 } in
  let origins = Hashtbl.create 64 and lengths = Hashtbl.create 8 in
  Array.iter
    (fun (e : Gen.entry) ->
      let origin = List.nth e.Gen.as_path (List.length e.Gen.as_path - 1) in
      Hashtbl.replace origins origin
        (1 + Option.value ~default:0 (Hashtbl.find_opt origins origin));
      Hashtbl.replace lengths (List.length e.Gen.as_path) ())
    t.Gen.dump;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) origins 0 in
  Alcotest.(check bool)
    (Printf.sprintf "top origin holds %d of 2000 routes" top)
    true
    (float_of_int top < 0.10 *. 2_000.);
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct path lengths" (Hashtbl.length lengths))
    true
    (Hashtbl.length lengths >= 3)

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
    ("unknown AS rejected", `Quick, test_graph_unknown_as_rejected);
    ("path shape", `Quick, test_path_shape);
    ("gen counts", `Quick, test_gen_counts);
    ("gen deterministic", `Quick, test_gen_deterministic);
    ("gen seed-sensitive", `Quick, test_gen_seed_sensitive);
    ("gen dump valid", `Quick, test_gen_dump_sorted_and_valid);
    ("gen events chronological", `Quick, test_gen_events_chronological);
    ("gen dump is not one origin's", `Quick, test_gen_many_origins);
    ("gen to_updates", `Quick, test_gen_to_updates);
    ("mrt roundtrip", `Quick, test_mrt_roundtrip);
    ("mrt corrupt rejected", `Quick, test_mrt_corrupt_rejected);
    ("mrt file io", `Quick, test_mrt_file_io);
    ("replay feed_dump", `Quick, test_replay_feed_dump);
    ("replay feed_events", `Quick, test_replay_feed_events);
    ("replay on_update hook", `Quick, test_replay_on_update_hook)
  ]
