(* The intent IR and its three dialect translators: text round trip,
   validation, per-dialect realization round trips (QCheck), cross-dialect
   agreement on quirk-free intents, and one unit test per documented
   quirk. *)
open Dice_inet
open Dice_bgp
open Dice_concolic

let ip = Ipv4.of_string
let p = Prefix.of_string
let comm = Community.make

let dialects : (module Dialect.S) list =
  [ (module Bird_dialect); (module Dice_bgp2.Quagga_dialect); (module Dice_bgp3.Xorp_dialect) ]

let pat ?low ?high base =
  let base = p base in
  let bl = Prefix.len base in
  { Filter.base; low = Option.value low ~default:bl; high = Option.value high ~default:bl }

let sample_intent ?(default = Some Intent.Deny) () =
  Intent.make ~router_id:(ip "10.0.0.1") ~local_as:64800
    ~prefix_sets:
      [ ("customers", [ pat "203.0.113.0/24"; pat ~high:28 "198.51.100.0/22" ]) ]
    ~policies:
      [
        Intent.policy ?default "customer_in"
          [
            Intent.permit
              ~matches:[ Intent.Prefixes "customers" ]
              ~actions:[ Intent.Set_local_pref 120; Intent.Add_community (comm 64800 100) ]
              ();
            Intent.deny ~matches:[ Intent.Transits 64666 ] ();
            Intent.permit
              ~matches:[ Intent.Path_longer_than 3 ]
              ~actions:[ Intent.Set_med 50; Intent.Prepend 2 ]
              ();
          ];
      ]
    ~sessions:
      [
        Intent.session "customer" ~neighbor:(ip "10.0.1.2") ~remote_as:64501
          ~import:(Intent.Apply "customer_in") ~export:Intent.Open;
        Intent.session "upstream" ~neighbor:(ip "10.0.2.2") ~remote_as:64700
          ~import:Intent.Open ~export:Intent.Block;
      ]
    ~statics:[ (p "192.0.2.0/24", ip "10.0.0.2") ]
    ~anycast:[ p "192.88.99.0/24" ]
    ()

(* ---- text format ---- *)

let test_text_roundtrip () =
  let i = sample_intent () in
  Alcotest.(check bool) "parse (to_string i) = i" true (Intent.parse (Intent.to_string i) = i);
  let i = sample_intent ~default:None () in
  Alcotest.(check bool) "unstated default survives" true (Intent.parse (Intent.to_string i) = i)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "expected Invalid_argument: %s" what

let test_validation () =
  expect_invalid "deny with actions" (fun () ->
      Intent.rule ~actions:[ Intent.Set_med 1 ] Intent.Deny);
  expect_invalid "prepend 17" (fun () -> Intent.permit ~actions:[ Intent.Prepend 17 ] ());
  expect_invalid "bad policy name" (fun () -> Intent.policy "Bad-Name" []);
  expect_invalid "dangling policy ref" (fun () ->
      Intent.make ~router_id:(ip "10.0.0.1") ~local_as:1
        ~sessions:
          [ Intent.session "s" ~neighbor:(ip "10.0.1.2") ~remote_as:2
              ~import:(Intent.Apply "nope") ~export:Intent.Open ]
        ());
  expect_invalid "dangling prefix-set ref" (fun () ->
      Intent.make ~router_id:(ip "10.0.0.1") ~local_as:1
        ~policies:[ Intent.policy "pol" [ Intent.permit ~matches:[ Intent.Prefixes "nope" ] () ] ]
        ());
  expect_invalid "duplicate session neighbor" (fun () ->
      Intent.make ~router_id:(ip "10.0.0.1") ~local_as:1
        ~sessions:
          [ Intent.session "a" ~neighbor:(ip "10.0.1.2") ~remote_as:2;
            Intent.session "b" ~neighbor:(ip "10.0.1.2") ~remote_as:3 ]
        ());
  expect_invalid "empty prefix set" (fun () ->
      Intent.make ~router_id:(ip "10.0.0.1") ~local_as:1 ~prefix_sets:[ ("s", []) ] ())

let test_config_types_duplicates () =
  let f name = { Filter.name; body = [ Filter.Accept ] } in
  expect_invalid "duplicate filter name" (fun () ->
      Config_types.make ~router_id:(ip "10.0.0.1") ~local_as:1 ~filters:[ f "x"; f "x" ] ());
  expect_invalid "duplicate peer neighbor" (fun () ->
      Config_types.make ~router_id:(ip "10.0.0.1") ~local_as:1
        ~peers:
          [ Config_types.default_peer ~name:"a" ~neighbor:(ip "10.0.1.2") ~remote_as:2;
            Config_types.default_peer ~name:"b" ~neighbor:(ip "10.0.1.2") ~remote_as:3 ]
        ())

(* ---- realization structure ---- *)

let test_realize_structure () =
  let i = sample_intent () in
  List.iter
    (fun (module D : Dialect.S) ->
      let cfg = Dialect.realize (module D) i in
      Alcotest.(check string) (D.name ^ " router id") "10.0.0.1"
        (Ipv4.to_string cfg.Config_types.router_id);
      Alcotest.(check int) (D.name ^ " local as") 64800 cfg.Config_types.local_as;
      Alcotest.(check int) (D.name ^ " peers") 2 (List.length cfg.Config_types.peers);
      Alcotest.(check bool)
        (D.name ^ " has policy filter")
        true
        (Config_types.find_filter cfg "customer_in" <> None);
      Alcotest.(check int) (D.name ^ " statics") 1 (List.length cfg.Config_types.static_routes);
      Alcotest.(check int) (D.name ^ " anycast") 1 (List.length cfg.Config_types.anycast);
      match Config_types.find_peer cfg (ip "10.0.1.2") with
      | None -> Alcotest.failf "%s: customer peer missing" D.name
      | Some peer -> (
        Alcotest.(check int) (D.name ^ " remote as") 64501 peer.Config_types.remote_as;
        match peer.Config_types.import_policy with
        | Config_types.Use_filter _ -> ()
        | _ -> Alcotest.failf "%s: customer import is not a filter" D.name))
    dialects

(* ---- running realized filters ---- *)

let run_filter cfg name croute =
  match Config_types.find_filter cfg name with
  | None -> Alcotest.failf "filter %s missing" name
  | Some f -> Filter_interp.run Engine.null ~source_as:64501 ~local_as:64800 f croute

let route ?(path = [ 64501 ]) ?med ?(communities = []) () =
  Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq path ] ~med
    ~communities
    ~next_hop:(ip "10.0.1.2")
    ()

let accepts cfg name prefix r =
  match run_filter cfg name (Croute.of_route (p prefix) r) with
  | Filter_interp.Accepted _ -> true
  | Filter_interp.Rejected -> false

(* Quirk: unstated default — BIRD falls off the filter end (reject),
   Quagga hits the implicit deny (reject), XORP's policy framework
   accepts what no term matched. *)
let test_default_action_quirk () =
  let i = sample_intent ~default:None () in
  let unmatched = route ~path:[ 64501; 64502 ] () in
  let check (module D : Dialect.S) expected =
    let cfg = Dialect.realize (module D) i in
    Alcotest.(check bool)
      (D.name ^ " verdict on unmatched route")
      expected
      (accepts cfg "customer_in" "8.8.8.0/24" unmatched)
  in
  check (module Bird_dialect) false;
  check (module Dice_bgp2.Quagga_dialect) false;
  check (module Dice_bgp3.Xorp_dialect) true;
  (* the same intent with an explicit default is quirk-free *)
  let i = sample_intent ~default:(Some Intent.Permit) () in
  List.iter
    (fun (module D : Dialect.S) ->
      Alcotest.(check bool)
        (D.name ^ " explicit permit default")
        true
        (accepts (Dialect.realize (module D) i) "customer_in" "8.8.8.0/24" unmatched))
    dialects

(* Quirk: Quagga prefix-list lower bounds clamp to the mask length, so a
   [P-] pattern (match anything containing P) degrades to exact-match. *)
let test_quagga_clamp_quirk () =
  let i =
    Intent.make ~router_id:(ip "10.0.0.1") ~local_as:64800
      ~prefix_sets:[ ("covering", [ pat ~low:0 "192.0.2.0/24" ]) ]
      ~policies:
        [ Intent.policy ~default:Intent.Deny "pol"
            [ Intent.permit ~matches:[ Intent.Prefixes "covering" ] () ] ]
      ()
  in
  let covering = route () in
  let bird = Dialect.realize (module Bird_dialect) i in
  let quagga = Dialect.realize (module Dice_bgp2.Quagga_dialect) i in
  Alcotest.(check bool) "bird matches the covering /16" true
    (accepts bird "pol" "192.0.0.0/16" covering);
  Alcotest.(check bool) "quagga clamps it away" false
    (accepts quagga "pol" "192.0.0.0/16" covering);
  Alcotest.(check bool) "both still match the exact /24" true
    (accepts bird "pol" "192.0.2.0/24" covering
    && accepts quagga "pol" "192.0.2.0/24" covering)

(* Quirk: XORP terms evaluate in lexicographic name order — with ten or
   more rules, t10 runs before t2, flipping first-match. *)
let test_xorp_ordering_quirk () =
  let filler n = Intent.permit ~matches:[ Intent.Transits (60000 + n) ] () in
  let rules =
    [ filler 1;
      Intent.permit ~matches:[ Intent.Transits 64666 ] () ]
    @ List.map filler [ 3; 4; 5; 6; 7; 8; 9 ]
    @ [ Intent.deny ~matches:[ Intent.Transits 64666 ] () ]
  in
  let i =
    Intent.make ~router_id:(ip "10.0.0.1") ~local_as:64800
      ~policies:[ Intent.policy ~default:Intent.Deny "pol" rules ]
      ()
  in
  let r = route ~path:[ 64501; 64666 ] () in
  let bird = Dialect.realize (module Bird_dialect) i in
  let quagga = Dialect.realize (module Dice_bgp2.Quagga_dialect) i in
  let xorp = Dialect.realize (module Dice_bgp3.Xorp_dialect) i in
  Alcotest.(check bool) "bird: written order, rule 2 permits" true (accepts bird "pol" "8.8.8.0/24" r);
  Alcotest.(check bool) "quagga: sequence order, rule 2 permits" true
    (accepts quagga "pol" "8.8.8.0/24" r);
  Alcotest.(check bool) "xorp: t10 sorts before t2 and denies" false
    (accepts xorp "pol" "8.8.8.0/24" r)

(* ---- QCheck: realization round trips on quirk-free intents ---- *)

(* Quirk-free: explicit default, at most nine rules, pattern lower
   bounds at or above the mask length. Every dialect must then agree
   with Intent.compile — including modified attributes. *)
let as_pool = [| 64501; 64666; 64999; 65010 |]
let comm_pool = [| comm 64800 100; comm 64800 200 |]

let pat_gen =
  let open QCheck.Gen in
  let bases = [| "10.0.0.0/8"; "192.0.2.0/24"; "198.51.100.0/22"; "203.0.113.0/24" |] in
  let* base = oneofa bases in
  let base = p base in
  let bl = Prefix.len base in
  let* low = int_range bl (min 32 (bl + 4)) in
  let* high = int_range low 32 in
  return { Filter.base; low; high }

let match_gen =
  let open QCheck.Gen in
  frequency
    [
      (2, return (Intent.Prefixes "set_a"));
      (2, map (fun i -> Intent.Transits as_pool.(i)) (int_bound 3));
      (1, map (fun i -> Intent.Originated_by as_pool.(i)) (int_bound 3));
      (1, map (fun n -> Intent.Path_longer_than n) (int_bound 4));
      (1, map (fun i -> Intent.Has_community comm_pool.(i)) (int_bound 1));
    ]

let action_gen =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun n -> Intent.Set_local_pref n) (int_bound 200));
      (2, map (fun n -> Intent.Set_med n) (int_bound 200));
      (1, map (fun i -> Intent.Add_community comm_pool.(i)) (int_bound 1));
      (1, map (fun i -> Intent.Delete_community comm_pool.(i)) (int_bound 1));
      (1, map (fun n -> Intent.Prepend n) (int_range 1 3));
    ]

let rule_gen =
  let open QCheck.Gen in
  let* matches = list_size (int_range 0 2) match_gen in
  let* permit = bool in
  if permit then
    let* actions = list_size (int_range 0 2) action_gen in
    return (Intent.permit ~matches ~actions ())
  else return (Intent.deny ~matches ())

let intent_gen =
  let open QCheck.Gen in
  let* pats = list_size (int_range 1 3) pat_gen in
  let* rules = list_size (int_range 1 9) rule_gen in
  let* default = oneofl [ Intent.Permit; Intent.Deny ] in
  return
    (Intent.make ~router_id:(ip "10.0.0.1") ~local_as:64800
       ~prefix_sets:[ ("set_a", pats) ]
       ~policies:[ Intent.policy ~default "pol" rules ]
       ~sessions:
         [ Intent.session "peer_a" ~neighbor:(ip "10.0.1.2") ~remote_as:64501
             ~import:(Intent.Apply "pol") ~export:Intent.Open ]
       ())

let route_gen =
  let open QCheck.Gen in
  let prefixes =
    [| "10.0.0.0/8"; "10.1.0.0/16"; "192.0.2.0/24"; "192.0.2.128/25"; "198.51.100.0/24";
       "203.0.113.0/24"; "8.8.8.0/24" |]
  in
  let* prefix = oneofa prefixes in
  let* path = list_size (int_range 1 4) (map (fun i -> as_pool.(i)) (int_bound 3)) in
  let* communities = list_size (int_bound 2) (map (fun i -> comm_pool.(i)) (int_bound 1)) in
  let* med = opt (int_bound 300) in
  return (p prefix, route ~path ?med ~communities ())

let arb_case =
  QCheck.make
    QCheck.Gen.(pair intent_gen (list_size (int_range 1 8) route_gen))
    ~print:(fun (i, routes) ->
      Printf.sprintf "%s\non %d routes" (Intent.to_string i) (List.length routes))

let flat_path (r : Route.t) =
  List.concat_map (function Asn.Path.Seq l -> l | Asn.Path.Set l -> l) r.Route.as_path

let verdict cfg prefix r =
  match Config_types.find_filter cfg "pol" with
  | None -> Alcotest.fail "realized config lost the policy"
  | Some f -> Filter_interp.run Engine.null ~source_as:64501 ~local_as:64800 f
                (Croute.of_route prefix r)

let verdict_equal va vb =
  match (va, vb) with
  | Filter_interp.Rejected, Filter_interp.Rejected -> true
  | Filter_interp.Accepted a, Filter_interp.Accepted b ->
    let pa, ra = Croute.to_route a and pb, rb = Croute.to_route b in
    pa = pb && Route.equal ra rb
  | _ -> false

let prop_dialect_roundtrip (module D : Dialect.S) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: realize agrees with Intent.compile on quirk-free intents" D.name)
    ~count:120 arb_case
    (fun (i, routes) ->
      let reference = Intent.compile ~unstated:Intent.Deny i in
      let realized = Dialect.realize (module D) i in
      List.for_all
        (fun (prefix, r) ->
          let vr = verdict reference prefix r and vd = verdict realized prefix r in
          let pol = Option.get (Intent.find_policy i "pol") in
          let eval =
            Intent.eval_policy i pol ~unstated:Intent.Deny ~path:(flat_path r)
              ~communities:r.Route.communities prefix
          in
          verdict_equal vr vd
          && eval = (match vd with Filter_interp.Accepted _ -> true | _ -> false))
        routes)

let prop_cross_dialect_agreement =
  QCheck.Test.make ~name:"cross-dialect: all three realizations agree on quirk-free intents"
    ~count:120 arb_case
    (fun (i, routes) ->
      let cfgs = List.map (fun (module D : Dialect.S) -> Dialect.realize (module D) i) dialects in
      List.for_all
        (fun (prefix, r) ->
          match List.map (fun cfg -> verdict cfg prefix r) cfgs with
          | [ a; b; c ] -> verdict_equal a b && verdict_equal b c
          | _ -> false)
        routes)

(* Malformed dialect text fails through Parse_error at the offending
   line, never through a constructor's Invalid_argument *)
(* Site names follow from the filter alone: building the same filters
   twice in one process — a dialect parsing the same rendered text, or
   the intent compiler compiling the same intent — gives equal filters,
   named in construction order (these flat chains build their last [if]
   first). *)
let test_build_twice_equal () =
  let i = sample_intent () in
  let filters (cfg : Config_types.t) = cfg.Config_types.filters in
  let sites (cfg : Config_types.t) =
    match Config_types.find_filter cfg "customer_in" with
    | Some f ->
      List.filter_map
        (function Filter.If { site; _ } -> Some site | _ -> None)
        f.Filter.body
    | None -> Alcotest.fail "no customer_in filter"
  in
  List.iter
    (fun (what, build) ->
      let first = build () in
      let again = build () in
      Alcotest.(check bool) (what ^ ": equal filters") true (filters first = filters again);
      Alcotest.(check (list string))
        (what ^ ": construction-order names")
        (List.map (Printf.sprintf "filter:customer_in:if%d") [ 2; 1; 0 ])
        (sites again))
    [ ("quagga", fun () -> Dice_bgp2.Quagga_dialect.(parse (render i)));
      ("xorp", fun () -> Dice_bgp3.Xorp_dialect.(parse (render i)));
      ("intent", fun () -> Intent.compile ~unstated:Intent.Deny i)
    ]

let test_dialect_parse_errors () =
  let fails_at (module D : Dialect.S) line src =
    match D.parse src with
    | exception Config_parser.Parse_error { line = at; _ } ->
      Alcotest.(check int) (D.name ^ ": error line") line at
    | exception e -> Alcotest.failf "%s: %S raised %s" D.name src (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: expected a parse error for %S" D.name src
  in
  let quagga_community c =
    Printf.sprintf
      "route-map rm permit 10\n set community %s additive\nrouter bgp 64800\n\
       \ bgp router-id 10.0.0.1\n neighbor 10.0.0.2 remote-as 64501\n\
       \ neighbor 10.0.0.2 route-map rm in\n"
      c
  in
  fails_at (module Dice_bgp2.Quagga_dialect) 2 (quagga_community "-5:100");
  fails_at (module Dice_bgp2.Quagga_dialect) 2 (quagga_community "5:-100");
  fails_at (module Dice_bgp2.Quagga_dialect) 2 (quagga_community "5:65536");
  let quagga_names first second =
    Printf.sprintf
      "router bgp 64800\n bgp router-id 10.0.0.1\n neighbor 10.0.0.2 remote-as 64501\n%s\
       \ neighbor 10.0.0.3 remote-as 64502\n%s"
      first second
  in
  (* two descriptions share a name; a description takes another
     neighbor's default name, after it and before it *)
  fails_at (module Dice_bgp2.Quagga_dialect) 6
    (quagga_names " neighbor 10.0.0.2 description up\n" " neighbor 10.0.0.3 description up\n");
  fails_at (module Dice_bgp2.Quagga_dialect) 5
    (quagga_names "" " neighbor 10.0.0.3 description peer_10.0.0.2\n");
  fails_at (module Dice_bgp2.Quagga_dialect) 4
    (quagga_names " neighbor 10.0.0.2 description peer_10.0.0.3\n" "");
  Alcotest.(check int) "two distinct Quagga names" 2
    (List.length
       (Dice_bgp2.Quagga_dialect.parse
          (quagga_names " neighbor 10.0.0.2 description up\n" " neighbor 10.0.0.3 description down\n"))
         .Config_types.peers);
  let xorp_peers second =
    Printf.sprintf
      "protocols {\n  bgp {\n    bgp_id 10.0.0.1;\n    local_as 64800;\n\
       \    peer a {\n      neighbor 10.0.0.2;\n      as 64501;\n    }\n\
       \    peer %s {\n      neighbor 10.0.0.%d;\n      as 64502;\n    }\n  }\n}\n"
      (fst second) (snd second)
  in
  (* the second peer's neighbor line, then its name *)
  fails_at (module Dice_bgp3.Xorp_dialect) 10 (xorp_peers ("b", 2));
  fails_at (module Dice_bgp3.Xorp_dialect) 9 (xorp_peers ("a", 3));
  fails_at (module Dice_bgp3.Xorp_dialect) 4
    "policy {\n  policy_statement p {\n  }\n  policy_statement p {\n  }\n}\n";
  (* distinct peers still parse *)
  Alcotest.(check int) "two distinct XORP peers" 2
    (List.length (Dice_bgp3.Xorp_dialect.parse (xorp_peers ("b", 3))).Config_types.peers)

let suite =
  [
    Alcotest.test_case "intent text round trip" `Quick test_text_roundtrip;
    Alcotest.test_case "dialect parse errors" `Quick test_dialect_parse_errors;
    Alcotest.test_case "building twice yields equal filters" `Quick test_build_twice_equal;
    Alcotest.test_case "smart-constructor validation" `Quick test_validation;
    Alcotest.test_case "Config_types.make rejects duplicates" `Quick test_config_types_duplicates;
    Alcotest.test_case "realized structure per dialect" `Quick test_realize_structure;
    Alcotest.test_case "quirk: unstated default action" `Quick test_default_action_quirk;
    Alcotest.test_case "quirk: quagga prefix-list clamp" `Quick test_quagga_clamp_quirk;
    Alcotest.test_case "quirk: xorp lexicographic terms" `Quick test_xorp_ordering_quirk;
  ]
  @ List.map (fun d -> QCheck_alcotest.to_alcotest (prop_dialect_roundtrip d)) dialects
  @ [ QCheck_alcotest.to_alcotest prop_cross_dialect_agreement ]
