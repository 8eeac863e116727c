(* The Topology API: spec building and validation, the text-format
   round-trip, seeded generation (determinism, connectivity), the fleet
   runner (valley-free export, Down-member exclusion, online probing),
   and the shared-memory claims (trie structural sharing, cross-clone
   checkpoint page dedup). *)

open Dice_inet
open Dice_bgp
open Dice_core
module Topology = Dice_topology.Topology
module Spec = Dice_topology.Topology.Spec
module Tgen = Dice_topology.Gen
module Fleet = Dice_topology.Fleet
module Threerouter = Dice_topology.Threerouter
module Store = Dice_checkpoint.Store
module Fork = Dice_checkpoint.Fork

let p = Prefix.of_string
let ip = Ipv4.of_string

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* ------------------------------------------------------------------ *)
(* Spec building and validation                                        *)
(* ------------------------------------------------------------------ *)

let two_domains () =
  [ Spec.domain "left" ~asn:65001 ~prefixes:[ p "203.0.113.0/24" ];
    Spec.domain "right" ~asn:65002 ]

let test_spec_smart_constructors () =
  let s =
    Spec.make ~domains:(two_domains ())
      ~links:[ Spec.transit ~customer:"left" ~provider:"right" () ]
      ()
  in
  Alcotest.(check int) "domains" 2 (List.length s.Spec.domains);
  let ns = Spec.neighbors s "left" in
  Alcotest.(check int) "left has one neighbor" 1 (List.length ns);
  let n = List.hd ns in
  Alcotest.(check string) "neighbor name" "right" n.Spec.peer_name;
  Alcotest.(check bool) "right is left's provider" true (n.Spec.peer_role = Spec.Provider);
  (* the two sides agree on the shared link's addresses *)
  Alcotest.(check bool) "addresses pair up" true
    (Spec.address s ~of_:"left" ~toward:"right" = n.Spec.my_addr
    && Spec.address s ~of_:"right" ~toward:"left" = n.Spec.peer_addr);
  (* distinct carve-outs *)
  let all =
    [ Spec.address s ~of_:"left" ~toward:"right";
      Spec.address s ~of_:"right" ~toward:"left";
      Spec.feed_addr s "left"; Spec.feed_addr s "right";
      Spec.router_id s "left"; Spec.router_id s "right" ]
  in
  Alcotest.(check int) "all plan addresses distinct" 6
    (List.length (List.sort_uniq Ipv4.compare all))

let test_spec_validation () =
  check_invalid "bad name" (fun () -> Spec.domain "Left!" ~asn:65001);
  check_invalid "bad asn" (fun () -> Spec.domain "left" ~asn:0);
  check_invalid "duplicate name" (fun () ->
      Spec.make
        ~domains:[ Spec.domain "a" ~asn:1; Spec.domain "a" ~asn:2 ]
        ~links:[] ());
  check_invalid "duplicate asn" (fun () ->
      Spec.make
        ~domains:[ Spec.domain "a" ~asn:7; Spec.domain "b" ~asn:7 ]
        ~links:[] ());
  check_invalid "unknown speaker" (fun () ->
      Spec.make ~domains:[ Spec.domain ~speaker:"cisco" "a" ~asn:1 ] ~links:[] ());
  check_invalid "dangling endpoint" (fun () ->
      Spec.make ~domains:(two_domains ())
        ~links:[ Spec.transit ~customer:"left" ~provider:"ghost" () ]
        ());
  check_invalid "self link" (fun () ->
      Spec.transit ~customer:"left" ~provider:"left" ());
  check_invalid "duplicate link" (fun () ->
      Spec.make ~domains:(two_domains ())
        ~links:
          [ Spec.transit ~customer:"left" ~provider:"right" ();
            Spec.peering "right" "left" ]
        ());
  check_invalid "asymmetric roles" (fun () ->
      let l = Spec.peering "left" "right" in
      Spec.make ~domains:(two_domains ())
        ~links:[ { l with Spec.a_role = Spec.Customer } ]
        ());
  check_invalid "no domains" (fun () -> Spec.make ~domains:[] ~links:[] ())

let test_spec_text_roundtrip () =
  let s =
    Spec.make
      ~domains:
        [ Spec.domain "core1" ~asn:100;
          Spec.domain ~speaker:"quagga" "core2" ~asn:200;
          Spec.domain ~speaker:"xorp"
            ~prefixes:[ p "203.0.113.0/24"; p "198.51.100.0/22" ] "leaf" ~asn:300 ]
      ~links:
        [ Spec.peering "core1" "core2";
          Spec.transit ~customer:"leaf" ~provider:"core1" ();
          Spec.transit ~latency:0.02 ~customer:"leaf" ~provider:"core2" () ]
      ()
  in
  let text = Spec.to_string s in
  let s' = Spec.parse text in
  Alcotest.(check string) "byte-for-byte round trip" text (Spec.to_string s');
  Alcotest.(check bool) "equal" true (Spec.equal s s');
  (* comments and odd whitespace are tolerated *)
  let s'' = Spec.parse ("# header\n" ^ text) in
  Alcotest.(check bool) "comment tolerated" true (Spec.equal s s'')

let test_spec_parse_errors () =
  let bad text =
    match Spec.parse text with
    | exception Spec.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" text
  in
  bad "";
  bad "topology {";
  bad "topology { domain a { speaker bird; } }" (* missing as *);
  bad "topology { domain a { as 1; } link a -> b; }" (* dangling *);
  bad "topology { domain a { as 1; } domain b { as 1; } }" (* dup asn *);
  bad "topology { domain a { as 1; prefix nonsense; } }";
  bad "topology { domain a { as 1; } } trailing"

let test_threerouter_spec () =
  let s = Threerouter.spec Threerouter.Correct in
  Alcotest.(check int) "three domains" 3 (List.length s.Spec.domains);
  (* the spec resolves to the paper's historical figure-2 addressing *)
  Alcotest.(check string) "customer side" "10.0.1.2"
    (Ipv4.to_string (Spec.address s ~of_:"customer" ~toward:"provider"));
  Alcotest.(check string) "provider's customer side" "10.0.1.1"
    (Ipv4.to_string (Spec.address s ~of_:"provider" ~toward:"customer"));
  Alcotest.(check string) "provider's internet side" "10.0.2.1"
    (Ipv4.to_string (Spec.address s ~of_:"provider" ~toward:"internet"));
  Alcotest.(check string) "internet side" "10.0.2.2"
    (Ipv4.to_string (Spec.address s ~of_:"internet" ~toward:"provider"))

let test_intent_of_realizes_everywhere () =
  let s = Tgen.generate ~seed:11L ~domains:5 () in
  List.iter
    (fun (d : Spec.domain) ->
      let intent = Spec.intent_of s d.Spec.name in
      List.iter
        (fun impl ->
          let sp = Speakers.create_exn impl (Speaker.Intent intent) in
          ignore (Speaker.config sp))
        Speakers.names)
    s.Spec.domains

(* ------------------------------------------------------------------ *)
(* Generation properties                                               *)
(* ------------------------------------------------------------------ *)

let arb_gen_input =
  QCheck.(pair (map Int64.of_int int) (int_range 1 48))

let prop_gen_deterministic =
  QCheck.Test.make ~name:"same seed generates the identical topology" ~count:25
    arb_gen_input
    (fun (seed, domains) ->
      let a = Tgen.generate ~seed ~domains () in
      let b = Tgen.generate ~seed ~domains () in
      Spec.to_string a = Spec.to_string b)

let connected (s : Spec.t) =
  let n = List.length s.Spec.domains in
  let idx = Hashtbl.create n in
  List.iteri (fun i (d : Spec.domain) -> Hashtbl.replace idx d.Spec.name i) s.Spec.domains;
  let adj = Array.make n [] in
  List.iter
    (fun (l : Spec.link) ->
      let a = Hashtbl.find idx l.Spec.a and b = Hashtbl.find idx l.Spec.b in
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    s.Spec.links;
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs adj.(i)
    end
  in
  dfs 0;
  Array.for_all Fun.id seen

let prop_gen_connected =
  QCheck.Test.make ~name:"generated topology is connected" ~count:25 arb_gen_input
    (fun (seed, domains) -> connected (Tgen.generate ~seed ~domains ()))

let prop_gen_text_roundtrip =
  QCheck.Test.make ~name:"generated topology round-trips through the text format"
    ~count:25 arb_gen_input
    (fun (seed, domains) ->
      let s = Tgen.generate ~seed ~domains () in
      let text = Spec.to_string s in
      Spec.to_string (Spec.parse text) = text)

(* ------------------------------------------------------------------ *)
(* Valley-free propagation                                             *)
(* ------------------------------------------------------------------ *)

let role_of (s : Spec.t) ~viewer ~peer =
  (List.find (fun (n : Spec.neighbor) -> n.Spec.peer_name = peer)
     (Spec.neighbors s viewer))
    .Spec.peer_role

(* Soundness of the Gao-Rexford export policies: replay the propagation
   log and require every "uphill or sideways" hop (toward a peer or
   provider) to be justified — the sender is the origin or has, earlier
   in the log, learned the prefix from one of its own customers. *)
let valley_free (s : Spec.t) ~origin log =
  let cust_ok = Hashtbl.create 16 in
  Hashtbl.replace cust_ok origin ();
  List.for_all
    (fun (sender, receiver, _) ->
      let ok =
        match role_of s ~viewer:sender ~peer:receiver with
        | Spec.Customer -> true (* downhill: always exportable *)
        | Spec.Peer | Spec.Provider -> Hashtbl.mem cust_ok sender
      in
      (match role_of s ~viewer:receiver ~peer:sender with
      | Spec.Customer -> Hashtbl.replace cust_ok receiver ()
      | Spec.Peer | Spec.Provider -> ());
      ok)
    log

let pick_leaf (s : Spec.t) =
  (* a domain with a provider, i.e. anything below the tier-1 clique *)
  match
    List.find_opt
      (fun (d : Spec.domain) ->
        List.exists
          (fun (n : Spec.neighbor) -> n.Spec.peer_role = Spec.Provider)
          (Spec.neighbors s d.Spec.name))
      (List.rev s.Spec.domains)
  with
  | Some d -> d.Spec.name
  | None -> (List.hd s.Spec.domains).Spec.name

let prop_no_valley_survives_export =
  QCheck.Test.make
    ~name:"no valley path survives export (leaf announcement reaches all, never \
           provider->peer->provider)"
    ~count:5
    QCheck.(pair (map Int64.of_int int) (int_range 4 14))
    (fun (seed, domains) ->
      let s = Tgen.generate ~seed ~domains () in
      let fl = Fleet.realize s in
      Fleet.establish fl;
      let origin = pick_leaf s in
      let prefix = p "203.0.113.0/24" in
      let log = Fleet.originate fl ~domain:origin prefix in
      let receivers = Hashtbl.create 16 in
      Hashtbl.replace receivers origin ();
      List.iter (fun (_, r, _) -> Hashtbl.replace receivers r ()) log;
      valley_free s ~origin log
      && Hashtbl.length receivers = List.length s.Spec.domains)

(* ------------------------------------------------------------------ *)
(* Structural sharing                                                  *)
(* ------------------------------------------------------------------ *)

let test_trie_clone_shares_untouched_subtrees () =
  let prefixes =
    List.init 256 (fun i -> Prefix.make (Ipv4.of_octets 10 (i / 16) (i mod 16 * 16) 0) 24)
  in
  let t =
    List.fold_left (fun acc pfx -> Prefix_trie.add pfx (Prefix.to_string pfx) acc)
      Prefix_trie.empty prefixes
  in
  let n = Prefix_trie.node_count t in
  Alcotest.(check int) "self-sharing is total" n (Prefix_trie.shared_nodes t t);
  (* a persistent "clone" is the same value; one insert must reuse every
     untouched subtree physically, paying only the spine to the new leaf *)
  let t' = Prefix_trie.add (p "192.0.2.0/24") "probe" t in
  let shared = Prefix_trie.shared_nodes t t' in
  let n' = Prefix_trie.node_count t' in
  Alcotest.(check bool)
    (Printf.sprintf "insert shares untouched subtrees (%d/%d shared)" shared n')
    true
    (shared >= n' - 33);
  (* and the original is untouched entirely *)
  Alcotest.(check int) "original unchanged" n (Prefix_trie.node_count t)

let announce ~peer_as ~next_hop ~prefix =
  Msg.Update
    { withdrawn = [];
      attrs =
        [ Attr.Origin Attr.Igp;
          Attr.As_path [ Asn.Path.Seq [ peer_as ] ];
          Attr.Next_hop next_hop ];
      nlri = [ prefix ] }

let clone_speaker impl =
  let neighbor = ip "10.9.0.2" in
  let intent =
    Intent.make ~router_id:(ip "10.9.0.1") ~local_as:65001
      ~sessions:[ Intent.session "up" ~neighbor ~remote_as:65002 ]
      ~statics:[ (p "203.0.113.0/24", ip "10.9.0.1") ]
      ()
  in
  let sp = Speakers.create_exn impl (Speaker.Intent intent) in
  Speaker.establish sp ~peer:neighbor;
  ignore
    (Speaker.feed sp ~peer:neighbor
       (announce ~peer_as:65002 ~next_hop:neighbor ~prefix:(p "198.51.100.0/24")));
  (sp, neighbor)

let test_speaker_clone_equivalent_and_isolated () =
  List.iter
    (fun impl ->
      let sp, neighbor = clone_speaker impl in
      let c = Speaker.clone sp in
      Alcotest.(check bool)
        (impl ^ ": clone answers like the original") true
        (Rib.Loc.to_list (Speaker.loc_rib c) = Rib.Loc.to_list (Speaker.loc_rib sp));
      (* mutating the clone must not leak into the live speaker *)
      ignore
        (Speaker.feed c ~peer:neighbor
           (announce ~peer_as:65002 ~next_hop:neighbor ~prefix:(p "198.51.101.0/24")));
      Alcotest.(check bool) (impl ^ ": clone diverged") true
        (Speaker.best_route c (p "198.51.101.0/24") <> None);
      Alcotest.(check bool) (impl ^ ": original untouched") true
        (Speaker.best_route sp (p "198.51.101.0/24") = None);
      (* and the other way round *)
      ignore
        (Speaker.feed sp ~peer:neighbor
           (announce ~peer_as:65002 ~next_hop:neighbor ~prefix:(p "198.51.102.0/24")));
      Alcotest.(check bool) (impl ^ ": clone isolated from original") true
        (Speaker.best_route c (p "198.51.102.0/24") = None))
    Speakers.names

let test_store_dedup_counters () =
  let st = Store.create ~page_size:64 () in
  Alcotest.(check (float 0.0)) "no captures yet" 0.0 (Store.dedup_ratio st);
  let img = Bytes.init 640 (fun i -> Char.chr (i mod 251)) in
  let s1 = Store.capture st img in
  Alcotest.(check int) "first capture all fresh" 10 (Store.page_inserts st);
  Alcotest.(check int) "first capture no hits" 0 (Store.page_hits st);
  let s2 = Store.capture st img in
  Alcotest.(check int) "identical capture all hits" 10 (Store.page_hits st);
  Alcotest.(check int) "captures counted" 2 (Store.captures st);
  Alcotest.(check (float 0.01)) "dedup ratio" 0.5 (Store.dedup_ratio st);
  Store.release s1;
  Store.release s2

(* ------------------------------------------------------------------ *)
(* The fleet                                                           *)
(* ------------------------------------------------------------------ *)

(* The generator draws every domain's speaker from the whole registry;
   unless [mixed], the same graph runs BIRD in every domain. *)
let small_fleet ?(mixed = false) ?(domains = 6) ?(seed = 5L) () =
  let s = Tgen.generate ~seed ~domains () in
  let s =
    if mixed then s
    else { s with Spec.domains = List.map (fun d -> { d with Spec.speaker = "bird" }) s.Spec.domains }
  in
  let fl = Fleet.realize s in
  Fleet.establish fl;
  fl

let test_fleet_drive_quiesces () =
  let fl = small_fleet ~mixed:true ~domains:8 () in
  let st = Fleet.drive ~jobs:2 ~updates_per_domain:12 fl in
  Alcotest.(check int) "every feed injected" (8 * 12) st.Fleet.fed;
  Alcotest.(check bool) "stream propagated beyond the feeds" true
    (st.Fleet.delivered > st.Fleet.fed);
  Alcotest.(check bool) "quiesced before the round bound" true (st.Fleet.rounds < 64);
  Alcotest.(check int) "nothing dropped" 0
    (st.Fleet.dropped_down + st.Fleet.skipped_feeds)

let test_fleet_online_probes () =
  let fl = small_fleet ~domains:6 () in
  let st = Fleet.drive ~updates_per_domain:8 ~probe_every:3 fl in
  Alcotest.(check bool) "probes issued" true (st.Fleet.probes > 0);
  Alcotest.(check bool) "verdicts returned" true (st.Fleet.verdicts > 0);
  (* probing ran over explorer clones of the live speakers *)
  let clones =
    List.fold_left
      (fun acc a -> acc + (Distributed.stats a).Distributed.clones)
      0 (Fleet.agents fl)
  in
  Alcotest.(check bool) "probes cloned, never serialized" true (clones >= st.Fleet.probes)

let test_fleet_probe_stats_jobs_invariant () =
  let drive ~jobs =
    Fleet.drive ~jobs ~updates_per_domain:12 ~probe_every:3
      (small_fleet ~mixed:true ~domains:8 ())
  in
  let one = drive ~jobs:1 and two = drive ~jobs:2 in
  Alcotest.(check bool) "probes issued" true (one.Fleet.probes > 0);
  Alcotest.(check bool) "verdicts returned" true (one.Fleet.verdicts > 0);
  Alcotest.(check bool) "stats equal at jobs 1 and 2" true (one = two)

(* A batch against the fleet's agents: every arrival session of every
   domain announces a set of prefixes around two originated blocks,
   one of them anycast-whitelisted everywhere. *)
let anycast_block = p "192.88.99.0/24"
let held_block = p "203.0.113.0/24"

let whitelisting_fleet s =
  let with_anycast (d : Spec.domain) =
    let (module D : Dialect.S) = Option.get (Speakers.dialect d.Spec.speaker) in
    let c = D.parse (D.render (Spec.intent_of s d.Spec.name)) in
    { d with Spec.config = Some { c with Config_types.anycast = [ anycast_block ] } }
  in
  let fl = Fleet.realize { s with Spec.domains = List.map with_anycast s.Spec.domains } in
  Fleet.establish fl;
  fl

let batch_requests fl =
  let s = Fleet.spec fl in
  let asn name = (List.find (fun (d : Spec.domain) -> d.Spec.name = name) s.Spec.domains).Spec.asn in
  List.concat_map
    (fun (d : Spec.domain) ->
      let agent = Fleet.agent fl d.Spec.name in
      let sessions =
        (Spec.feed_addr s d.Spec.name, Spec.feed_as)
        :: List.map
             (fun (n : Spec.neighbor) -> (n.Spec.peer_addr, asn n.Spec.peer_name))
             (Spec.neighbors s d.Spec.name)
      in
      let msg ~first_as ~next_hop prefixes =
        Msg.Update
          { withdrawn = [];
            attrs =
              [ Attr.Origin Attr.Igp;
                Attr.As_path [ Asn.Path.Seq [ first_as; 64999 ] ];
                Attr.Next_hop next_hop ];
            nlri = List.map p prefixes }
      in
      List.concat_map
        (fun (from, first_as) ->
          let m = msg ~first_as ~next_hop:from in
          [ (agent, from, m [ "203.0.113.0/24" ]);  (* overrides a foreign origin *)
            (agent, from, m [ "203.0.113.128/25" ]);  (* covered by one *)
            (agent, from, m [ "203.0.0.0/16"; "100.64.0.0/16" ]);  (* covers one *)
            (agent, from, m [ "192.88.99.0/24" ]);  (* whitelisted *)
            (agent, from, m [ "203.0.113.0/24" ]) (* repeated: a vcache hit *) ])
        sessions)
    s.Spec.domains

let render_outcome = function
  | Distributed.Verdicts vs ->
    String.concat ";"
      (List.map (fun (q, v) -> Prefix.to_string q ^ "=" ^ Verdict.to_string v) vs)
  | Distributed.Declined r -> "declined " ^ r
  | Distributed.Timeout -> "timeout"

let versions fl =
  List.map
    (fun (d : Spec.domain) -> Speaker.updates_processed (Fleet.speaker fl d.Spec.name))
    (Fleet.spec fl).Spec.domains

let agent_counters fl =
  List.map
    (fun a ->
      let st = Distributed.stats a in
      Distributed.(st.probes, st.checkpoints, st.clones, st.vcache_hits, st.declines))
    (Fleet.agents fl)

let test_fleet_batch_matches_single_probes () =
  let s = Tgen.generate ~seed:11L ~domains:6 () in
  let batched = whitelisting_fleet s and single = whitelisting_fleet s in
  let twins = [ batched; single ] in
  let origin = (List.hd s.Spec.domains).Spec.name in
  List.iter
    (fun fl ->
      ignore (Fleet.drive ~updates_per_domain:16 fl);
      ignore (Fleet.originate fl ~domain:origin held_block);
      ignore (Fleet.originate fl ~domain:origin anycast_block))
    twins;
  let pass ~jobs =
    let reqs = batch_requests batched in
    let before = versions batched in
    let got = Distributed.probe_all ~jobs reqs in
    Alcotest.(check (list int))
      (Printf.sprintf "no live speaker moved (jobs %d)" jobs)
      before (versions batched);
    let want =
      List.map
        (fun (a, from, msg) ->
          Distributed.probe (Fleet.agent single (Distributed.agent_name a)) ~from msg)
        reqs
    in
    Alcotest.(check (list string))
      (Printf.sprintf "batch verdicts equal single probes (jobs %d)" jobs)
      (List.map render_outcome want) (List.map render_outcome got);
    Alcotest.(check bool)
      (Printf.sprintf "counters equal single probes (jobs %d)" jobs)
      true
      (agent_counters batched = agent_counters single);
    List.concat_map Distributed.verdicts got
  in
  let first = pass ~jobs:1 in
  (* the twins move on together, so the second pass misses every cache *)
  List.iter (fun fl -> ignore (Fleet.drive ~updates_per_domain:16 ~seed:8L fl)) twins;
  let second = pass ~jobs:2 in
  let vs = first @ second in
  Alcotest.(check bool) "an origin conflict somewhere" true
    (List.exists (fun (_, v) -> v.Distributed.origin_conflict) vs);
  Alcotest.(check bool) "a covered foreign route somewhere" true
    (List.exists (fun (_, v) -> v.Distributed.covers_foreign > 0) vs);
  Alcotest.(check bool) "the whitelisted prefix accepted somewhere" true
    (List.exists
       (fun (q, v) -> Prefix.equal q anycast_block && v.Distributed.accepted)
       vs);
  Alcotest.(check bool) "the whitelisted prefix never conflicts" true
    (List.for_all
       (fun (q, v) ->
         (not (Prefix.equal q anycast_block))
         || ((not v.Distributed.origin_conflict) && v.Distributed.covers_foreign = 0))
       vs)

let test_fleet_down_member_excluded () =
  let fl = small_fleet ~domains:6 () in
  let victim = "d3" in
  let before = Speaker.updates_processed (Fleet.speaker fl victim) in
  Health.note_down (Distributed.agent_health (Fleet.agent fl victim)) ~now:0.0;
  let live, down = Panel.eligible (Fleet.agents fl) in
  Alcotest.(check int) "one down" 1 (List.length down);
  Alcotest.(check int) "rest live" 5 (List.length live);
  let st = Fleet.drive ~updates_per_domain:8 fl in
  Alcotest.(check int) "down member's feed withheld" 8 st.Fleet.skipped_feeds;
  Alcotest.(check int) "live feeds still injected" (5 * 8) st.Fleet.fed;
  Alcotest.(check bool) "stream not stalled" true (st.Fleet.rounds < 64);
  Alcotest.(check int) "down member never driven" before
    (Speaker.updates_processed (Fleet.speaker fl victim));
  Alcotest.(check bool) "messages to the crashed domain dropped, not queued" true
    (st.Fleet.dropped_down > 0)

let test_fleet_rib_sharing () =
  let fl = small_fleet ~domains:4 () in
  ignore (Fleet.drive ~updates_per_domain:32 fl);
  let shared, total = Fleet.rib_sharing fl ~domain:"d0" in
  Alcotest.(check bool)
    (Printf.sprintf "clone shares most of the live Loc-RIB (%d/%d)" shared total)
    true
    (total > 0 && shared * 2 > total)

let test_fleet_checkpoint_dedup () =
  let fl = small_fleet ~domains:4 () in
  ignore (Fleet.drive ~updates_per_domain:32 fl);
  Fleet.checkpoint_all ~clones:2 fl;
  let st = Fleet.store fl in
  Alcotest.(check int) "captures" (4 * 3) (Store.captures st);
  Alcotest.(check bool) "clone pages dedup against the live checkpoint" true
    (Store.dedup_ratio st > 0.5);
  Fleet.release_checkpoints fl;
  Alcotest.(check int) "all snapshots released" 0 (Store.live_snapshots st)

let suite =
  [ Alcotest.test_case "spec smart constructors" `Quick test_spec_smart_constructors;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "spec text round-trip" `Quick test_spec_text_roundtrip;
    Alcotest.test_case "spec parse errors" `Quick test_spec_parse_errors;
    Alcotest.test_case "threerouter as a spec" `Quick test_threerouter_spec;
    Alcotest.test_case "intent realizes through every dialect" `Quick
      test_intent_of_realizes_everywhere;
    QCheck_alcotest.to_alcotest prop_gen_deterministic;
    QCheck_alcotest.to_alcotest prop_gen_connected;
    QCheck_alcotest.to_alcotest prop_gen_text_roundtrip;
    QCheck_alcotest.to_alcotest prop_no_valley_survives_export;
    Alcotest.test_case "trie clone shares untouched subtrees" `Quick
      test_trie_clone_shares_untouched_subtrees;
    Alcotest.test_case "speaker clones are equivalent and isolated" `Quick
      test_speaker_clone_equivalent_and_isolated;
    Alcotest.test_case "store dedup counters" `Quick test_store_dedup_counters;
    Alcotest.test_case "fleet drive quiesces" `Quick test_fleet_drive_quiesces;
    Alcotest.test_case "fleet online probes" `Quick test_fleet_online_probes;
    Alcotest.test_case "fleet probe stats equal at jobs 1 and 2" `Quick
      test_fleet_probe_stats_jobs_invariant;
    Alcotest.test_case "fleet probe batch equals single probes" `Quick
      test_fleet_batch_matches_single_probes;
    Alcotest.test_case "down member excluded from the drive loop" `Quick
      test_fleet_down_member_excluded;
    Alcotest.test_case "fleet rib sharing" `Quick test_fleet_rib_sharing;
    Alcotest.test_case "fleet checkpoint dedup" `Quick test_fleet_checkpoint_dedup ]
