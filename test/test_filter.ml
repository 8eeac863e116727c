(* Tests for the filter language: patterns, parsing, interpretation. *)
open Dice_inet
open Dice_bgp
open Dice_concolic

let p = Prefix.of_string

(* ---- prefix patterns ---- *)

let pat base low high = { Filter.base = p base; low; high }

let test_pattern_exact () =
  let pt = pat "10.0.0.0/8" 8 8 in
  Alcotest.(check bool) "matches itself" true (Filter.pattern_matches pt (p "10.0.0.0/8"));
  Alcotest.(check bool) "longer rejected" false (Filter.pattern_matches pt (p "10.0.0.0/9"));
  Alcotest.(check bool) "other rejected" false (Filter.pattern_matches pt (p "11.0.0.0/8"))

let test_pattern_plus () =
  let pt = pat "10.0.0.0/8" 8 32 in
  Alcotest.(check bool) "itself" true (Filter.pattern_matches pt (p "10.0.0.0/8"));
  Alcotest.(check bool) "more specific" true (Filter.pattern_matches pt (p "10.1.2.0/24"));
  Alcotest.(check bool) "host" true (Filter.pattern_matches pt (p "10.1.2.3/32"));
  Alcotest.(check bool) "outside" false (Filter.pattern_matches pt (p "11.0.0.0/24"));
  Alcotest.(check bool) "shorter" false (Filter.pattern_matches pt (p "8.0.0.0/7"))

let test_pattern_minus () =
  let pt = pat "10.0.0.0/8" 0 8 in
  Alcotest.(check bool) "itself" true (Filter.pattern_matches pt (p "10.0.0.0/8"));
  Alcotest.(check bool) "covering /4" true (Filter.pattern_matches pt (p "0.0.0.0/4"));
  Alcotest.(check bool) "longer rejected" false (Filter.pattern_matches pt (p "10.0.0.0/9"))

let test_pattern_range () =
  let pt = pat "198.51.100.0/22" 22 28 in
  Alcotest.(check bool) "/24 inside" true (Filter.pattern_matches pt (p "198.51.101.0/24"));
  Alcotest.(check bool) "/29 too long" false (Filter.pattern_matches pt (p "198.51.100.0/29"));
  Alcotest.(check bool) "wrong block" false (Filter.pattern_matches pt (p "198.51.96.0/24"))

(* ---- parsing ---- *)

let parse_filter body = Config_parser.parse_filter ~name:"t" body

let test_parse_simple () =
  let f = parse_filter "accept;" in
  Alcotest.(check int) "one stmt" 1 (List.length f.Filter.body)

let test_parse_if_else () =
  let f = parse_filter "if net.len > 24 then reject; else accept;" in
  match f.Filter.body with
  | [ Filter.If { cond = Filter.Cmp (Filter.Cgt, Filter.Net_len, Filter.Int_lit 24);
                  then_ = [ Filter.Reject ]; else_ = [ Filter.Accept ]; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_patterns () =
  let f = parse_filter "if net ~ [ 10.0.0.0/8+, 172.16.0.0/12{12,24}, 192.168.0.0/16- , 1.2.3.0/24 ] then accept; reject;" in
  match f.Filter.body with
  | [ Filter.If { cond = Filter.Match_net pats; _ }; Filter.Reject ] ->
    Alcotest.(check (list (pair int int)))
      "bounds"
      [ (8, 32); (12, 24); (0, 16); (24, 24) ]
      (List.map (fun (pt : Filter.prefix_pattern) -> (pt.Filter.low, pt.Filter.high)) pats)
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_boolean_structure () =
  let f = parse_filter "if net.len >= 8 && (bgp_med = 5 || !(bgp_origin = 2)) then accept; reject;" in
  match f.Filter.body with
  | [ Filter.If { cond = Filter.And (_, Filter.Or (_, Filter.Not _)); _ }; Filter.Reject ] -> ()
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_assignments () =
  let f =
    parse_filter
      "bgp_local_pref = 120; bgp_med = 5; bgp_community.add(64500:1); \
       bgp_community.delete(64500:2); bgp_path.prepend(3); accept;"
  in
  Alcotest.(check int) "six stmts" 6 (List.length f.Filter.body)

let test_parse_path_atoms () =
  let f = parse_filter "if bgp_path ~ 64501 && bgp_community ~ 64500:80 && bgp_path.len < 5 && bgp_path.first = 1 && bgp_path.last = 2 && source_as = 3 then accept; reject;" in
  Alcotest.(check int) "parses" 2 (List.length f.Filter.body)

let test_parse_errors () =
  let bad body =
    match Config_parser.parse_filter ~name:"bad" body with
    | exception Config_parser.Parse_error _ -> ()
    | exception Config_lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" body
  in
  bad "if net ~ then accept;";
  bad "accept";
  bad "bgp_local_pref 120;";
  bad "if net.len >> 3 then accept;";
  bad "unknown_statement;";
  bad "if net.len > 99999999999999999999 then accept;";
  let bad_config src =
    match Config_parser.parse src with
    | exception Config_parser.Parse_error _ -> ()
    | exception Config_lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  (* oversized integers and a duplicate protocol name are pinned to
     their lines in the next test *)
  bad_config
    "router id 10.0.0.1; local as 1;\n\
     protocol bgp a { neighbor 10.0.0.2 as 2; }\n\
     protocol bgp b { neighbor 10.0.0.2 as 3; }";
  bad_config "router id 10.0.0.1; local as 1;\nfilter f { accept; }\nfilter f { reject; }"

let test_parse_error_line_numbers () =
  (match Config_parser.parse "router id 10.0.0.1;\nlocal as 1;\nbogus;" with
  | exception Config_parser.Parse_error { line; _ } -> Alcotest.(check int) "line 3" 3 line
  | _ -> Alcotest.fail "expected parse error");
  (* out-of-range integers are lexical errors on their own line *)
  (match Config_parser.parse "router id 10.0.0.1;\nlocal as 99999999999999999999;" with
  | exception Config_lexer.Lex_error { line; _ } -> Alcotest.(check int) "local as" 2 line
  | _ -> Alcotest.fail "expected a lexical error for an oversized AS");
  (match
     Config_parser.parse
       "router id 10.0.0.1;\nlocal as 1;\nprotocol bgp a {\n neighbor 10.0.0.2 as 2;\n\
        hold time 99999999999999999999;\n}"
   with
  | exception Config_lexer.Lex_error { line; _ } -> Alcotest.(check int) "hold time" 5 line
  | _ -> Alcotest.fail "expected a lexical error for an oversized hold time");
  (* a duplicate protocol is reported at its second declaration *)
  match
    Config_parser.parse
      "router id 10.0.0.1;\nlocal as 1;\nprotocol bgp a { neighbor 10.0.0.2 as 2; }\n\
       \nprotocol bgp a { neighbor 10.0.0.3 as 3; }"
  with
  | exception Config_parser.Parse_error { line; _ } ->
    Alcotest.(check int) "second protocol bgp a" 5 line
  | _ -> Alcotest.fail "expected a parse error for a duplicate protocol"

let test_parse_full_config () =
  let cfg =
    Config_parser.parse
      {|
      # full configuration exercise
      router id 10.0.0.1;
      local as 64510;
      filter f1 { if net ~ [ 10.0.0.0/8+ ] then accept; reject; }
      protocol static {
        route 192.0.2.0/24 via 10.0.0.2;
        route 198.51.100.0/22 via 10.0.0.3;
      }
      protocol bgp customer {
        neighbor 10.0.1.2 as 64501;
        import filter f1;
        export none;
        hold time 30;
        keepalive time 10;
        connect retry time 7;
      }
      anycast [ 192.88.99.0/24 ];
      |}
  in
  Alcotest.(check string) "router id" "10.0.0.1" (Ipv4.to_string cfg.Config_types.router_id);
  Alcotest.(check int) "local as" 64510 cfg.Config_types.local_as;
  Alcotest.(check int) "filters" 1 (List.length cfg.Config_types.filters);
  Alcotest.(check int) "statics" 2 (List.length cfg.Config_types.static_routes);
  Alcotest.(check int) "anycast" 1 (List.length cfg.Config_types.anycast);
  match cfg.Config_types.peers with
  | [ peer ] ->
    Alcotest.(check int) "remote as" 64501 peer.Config_types.remote_as;
    Alcotest.(check (float 0.0)) "hold" 30.0 peer.Config_types.hold_time;
    Alcotest.(check (float 0.0)) "keepalive" 10.0 peer.Config_types.keepalive_time;
    Alcotest.(check (float 0.0)) "retry" 7.0 peer.Config_types.connect_retry_time;
    (match peer.Config_types.import_policy with
    | Config_types.Use_filter f -> Alcotest.(check string) "filter name" "f1" f.Filter.name
    | _ -> Alcotest.fail "expected filter policy");
    (match peer.Config_types.export_policy with
    | Config_types.Nothing -> ()
    | _ -> Alcotest.fail "expected none policy")
  | _ -> Alcotest.fail "expected one peer"

(* A filter's [if] sites, in statement order (an [If] before its arms). *)
let rec if_sites = function
  | [] -> []
  | Filter.If { site; then_; else_; _ } :: rest ->
    (site :: if_sites then_) @ if_sites else_ @ if_sites rest
  | _ :: rest -> if_sites rest

(* Site names follow from the filter alone: one process parsing the same
   source twice gets equal filters, numbered in construction order (an
   [if]'s arms are built before it). *)
let test_parse_twice_equal () =
  let src =
    {|
    router id 10.0.0.1;
    local as 64510;
    filter twice {
      if net ~ [ 10.0.0.0/8+ ] then { if bgp_path.len > 3 then reject; accept; }
      else { if bgp_med > 5 then reject; }
      if source_as = 1 then accept;
      reject;
    }
    |}
  in
  let first = Config_parser.parse src in
  let again = Config_parser.parse src in
  Alcotest.(check bool) "equal filters" true
    (first.Config_types.filters = again.Config_types.filters);
  match again.Config_types.filters with
  | [ f ] ->
    Alcotest.(check (list string))
      "construction-order names"
      (List.map (Printf.sprintf "filter:twice:if%d") [ 2; 0; 1; 3 ])
      (if_sites f.Filter.body)
  | _ -> Alcotest.fail "expected one filter"

let test_parse_unknown_filter_rejected () =
  match
    Config_parser.parse
      "router id 1.1.1.1; local as 1;\n\
       protocol bgp x { neighbor 2.2.2.2 as 2; import filter nope; }"
  with
  | exception Config_parser.Parse_error { msg; _ } ->
    Alcotest.(check bool) "mentions the filter" true
      (String.length msg > 0 && String.sub msg 0 14 = "unknown filter")
  | _ -> Alcotest.fail "expected parse error"

let test_keepalive_defaults_to_third () =
  let cfg =
    Config_parser.parse
      "router id 1.1.1.1; local as 1;\nprotocol bgp x { neighbor 2.2.2.2 as 2; hold time 90; }"
  in
  match cfg.Config_types.peers with
  | [ peer ] -> Alcotest.(check (float 0.0)) "hold/3" 30.0 peer.Config_types.keepalive_time
  | _ -> Alcotest.fail "expected one peer"

(* ---- interpretation (concrete) ---- *)

let croute_of prefix route = Croute.of_route (p prefix) route

let base_route =
  Route.make ~origin:Attr.Igp
    ~as_path:[ Asn.Path.Seq [ 64501; 64777 ] ]
    ~med:(Some 10)
    ~next_hop:(Ipv4.of_string "10.0.0.2")
    ()

let run_filter body prefix route =
  let f = parse_filter body in
  Filter_interp.run Engine.null ~source_as:64501 ~local_as:64510 f
    (croute_of prefix route)

let expect_accept body prefix route =
  match run_filter body prefix route with
  | Filter_interp.Accepted cr -> cr
  | Filter_interp.Rejected -> Alcotest.fail "expected accept"

let expect_reject body prefix route =
  match run_filter body prefix route with
  | Filter_interp.Rejected -> ()
  | Filter_interp.Accepted _ -> Alcotest.fail "expected reject"

let test_interp_accept_reject () =
  ignore (expect_accept "accept;" "10.0.0.0/24" base_route);
  expect_reject "reject;" "10.0.0.0/24" base_route;
  (* falling off the end rejects *)
  expect_reject "bgp_med = 1;" "10.0.0.0/24" base_route

let test_interp_match_net () =
  ignore (expect_accept "if net ~ [ 10.0.0.0/8+ ] then accept; reject;" "10.1.0.0/16" base_route);
  expect_reject "if net ~ [ 10.0.0.0/8+ ] then accept; reject;" "11.1.0.0/16" base_route

let test_interp_if_else () =
  expect_reject "if net.len > 8 then reject; else accept;" "10.0.0.0/16" base_route;
  ignore (expect_accept "if net.len > 8 then reject; else accept;" "10.0.0.0/8" base_route)

let test_interp_terms () =
  ignore (expect_accept "if bgp_path.len = 2 then accept; reject;" "10.0.0.0/8" base_route);
  ignore (expect_accept "if bgp_path.first = 64501 then accept; reject;" "10.0.0.0/8" base_route);
  ignore (expect_accept "if bgp_path.last = 64777 then accept; reject;" "10.0.0.0/8" base_route);
  ignore (expect_accept "if source_as = 64501 then accept; reject;" "10.0.0.0/8" base_route);
  ignore (expect_accept "if bgp_med = 10 then accept; reject;" "10.0.0.0/8" base_route);
  ignore (expect_accept "if bgp_origin = 0 then accept; reject;" "10.0.0.0/8" base_route)

let test_interp_path_has () =
  ignore (expect_accept "if bgp_path ~ 64777 then accept; reject;" "10.0.0.0/8" base_route);
  expect_reject "if bgp_path ~ 65000 then accept; reject;" "10.0.0.0/8" base_route

let test_interp_attribute_assignment () =
  let cr = expect_accept "bgp_local_pref = 120; bgp_med = 7; accept;" "10.0.0.0/8" base_route in
  let _, r = Croute.to_route cr in
  Alcotest.(check (option int)) "lp" (Some 120) r.Route.local_pref;
  Alcotest.(check (option int)) "med" (Some 7) r.Route.med

let test_interp_communities () =
  let cr =
    expect_accept "bgp_community.add(64500:80); accept;" "10.0.0.0/8" base_route
  in
  Alcotest.(check bool) "added" true
    (List.mem (Community.make 64500 80) cr.Croute.communities);
  let cr2 =
    expect_accept "bgp_community.add(64500:80); bgp_community.delete(64500:80); accept;"
      "10.0.0.0/8" base_route
  in
  Alcotest.(check bool) "deleted" false
    (List.mem (Community.make 64500 80) cr2.Croute.communities)

let test_interp_prepend () =
  let cr = expect_accept "bgp_path.prepend(2); accept;" "10.0.0.0/8" base_route in
  Alcotest.(check int) "two longer" 4 (Asn.Path.length cr.Croute.as_path);
  Alcotest.(check (option int)) "prepends local AS" (Some 64510)
    (Asn.Path.first_as cr.Croute.as_path)

let test_interp_nested_if () =
  let body =
    "if net.len >= 8 then { if bgp_med > 5 then { bgp_local_pref = 50; accept; } reject; } \
     reject;"
  in
  let cr = expect_accept body "10.0.0.0/16" base_route in
  Alcotest.(check int) "assigned in nested arm" 50 (Dice_concolic.Cval.to_int cr.Croute.local_pref)

let test_interp_concolic_matches_concrete () =
  (* the same filter decided with a recording context and symbolic inputs
     must take the same concrete verdict *)
  let f = parse_filter "if net ~ [ 10.0.0.0/8{8,24} ] && bgp_med < 50 then accept; reject;" in
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  let cr_conc = croute_of "10.1.0.0/16" base_route in
  let cr_sym =
    { cr_conc with
      Croute.net_addr = Engine.input ctx ~name:"fa" ~width:32 ~default:(Int64.of_int (Prefix.network (p "10.1.0.0/16")));
      net_len = Engine.input ctx ~name:"fl" ~width:8 ~default:16L;
      med = Engine.input ctx ~name:"fm" ~width:32 ~default:10L;
    }
  in
  let v_conc = Filter_interp.run Engine.null ~source_as:1 ~local_as:2 f cr_conc in
  let v_sym = Filter_interp.run ctx ~source_as:1 ~local_as:2 f cr_sym in
  let verdict = function Filter_interp.Accepted _ -> true | Filter_interp.Rejected -> false in
  Alcotest.(check bool) "same verdict" (verdict v_conc) (verdict v_sym);
  Alcotest.(check bool) "constraints recorded" true (Dice_concolic.Path.length (Engine.path ctx) > 0)

let test_eval_pattern_concolic_agrees () =
  (* eval_cond's Match_net over concrete cvals agrees with
     Filter.pattern_matches across a population of prefixes *)
  let pt = pat "198.51.100.0/22" 22 28 in
  List.iter
    (fun s ->
      let pfx = p s in
      let cr = croute_of s base_route in
      let expect = Filter.pattern_matches pt pfx in
      let got =
        Dice_concolic.Cval.bool_of
          (Filter_interp.eval_cond Engine.null ~source_as:1 (Filter.Match_net [ pt ]) cr)
      in
      Alcotest.(check bool) s expect got)
    [ "198.51.100.0/22"; "198.51.101.0/24"; "198.51.100.0/28"; "198.51.100.0/29";
      "198.51.96.0/22"; "198.51.100.0/21"; "10.0.0.0/24"; "198.51.102.128/25" ]

let suite =
  [ ("pattern exact", `Quick, test_pattern_exact);
    ("pattern plus", `Quick, test_pattern_plus);
    ("pattern minus", `Quick, test_pattern_minus);
    ("pattern range", `Quick, test_pattern_range);
    ("parse simple", `Quick, test_parse_simple);
    ("parse if/else", `Quick, test_parse_if_else);
    ("parse patterns", `Quick, test_parse_patterns);
    ("parse boolean structure", `Quick, test_parse_boolean_structure);
    ("parse assignments", `Quick, test_parse_assignments);
    ("parse path atoms", `Quick, test_parse_path_atoms);
    ("parse errors", `Quick, test_parse_errors);
    ("parse error line numbers", `Quick, test_parse_error_line_numbers);
    ("parse full config", `Quick, test_parse_full_config);
    ("parse twice yields equal filters", `Quick, test_parse_twice_equal);
    ("unknown filter rejected", `Quick, test_parse_unknown_filter_rejected);
    ("keepalive defaults", `Quick, test_keepalive_defaults_to_third);
    ("interp accept/reject", `Quick, test_interp_accept_reject);
    ("interp match net", `Quick, test_interp_match_net);
    ("interp if/else", `Quick, test_interp_if_else);
    ("interp terms", `Quick, test_interp_terms);
    ("interp path has", `Quick, test_interp_path_has);
    ("interp assignment", `Quick, test_interp_attribute_assignment);
    ("interp communities", `Quick, test_interp_communities);
    ("interp prepend", `Quick, test_interp_prepend);
    ("interp nested if", `Quick, test_interp_nested_if);
    ("concolic matches concrete", `Quick, test_interp_concolic_matches_concrete);
    ("pattern concolic agrees", `Quick, test_eval_pattern_concolic_agrees)
  ]
