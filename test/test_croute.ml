(* Tests for concolic routes (Croute) and Config_types helpers. *)
open Dice_inet
open Dice_bgp
open Dice_concolic

let p = Prefix.of_string

let route =
  Route.make ~origin:Attr.Egp
    ~as_path:[ Asn.Path.Seq [ 64501; 64777 ] ]
    ~med:(Some 10) ~local_pref:(Some 120)
    ~communities:[ Community.make 1 2 ]
    ~atomic_aggregate:true
    ~aggregator:(Some (64501, Ipv4.of_string "10.0.0.1"))
    ~next_hop:(Ipv4.of_string "10.0.0.2")
    ()

let test_of_to_roundtrip () =
  let cr = Croute.of_route (p "192.0.2.0/24") route in
  let prefix', route' = Croute.to_route cr in
  Alcotest.(check string) "prefix" "192.0.2.0/24" (Prefix.to_string prefix');
  Alcotest.(check bool) "route preserved" true (Route.equal route route')

let test_prefix_of () =
  let cr = Croute.of_route (p "10.0.0.0/8") route in
  Alcotest.(check string) "prefix_of" "10.0.0.0/8" (Prefix.to_string (Croute.prefix_of cr))

let test_flags () =
  let cr = Croute.of_route (p "10.0.0.0/8") route in
  Alcotest.(check bool) "has_med" true cr.Croute.has_med;
  Alcotest.(check bool) "has_local_pref" true cr.Croute.has_local_pref;
  let bare = Route.make ~as_path:[ Asn.Path.Seq [ 1 ] ] ~next_hop:1 () in
  let cr2 = Croute.of_route (p "10.0.0.0/8") bare in
  Alcotest.(check bool) "no med" false cr2.Croute.has_med;
  let _, back = Croute.to_route cr2 in
  Alcotest.(check (option int)) "med stays absent" None back.Route.med

let test_origin_as_rewrite () =
  let cr = Croute.of_route (p "10.0.0.0/8") route in
  let cr = { cr with Croute.origin_as = Cval.of_int ~width:32 65000 } in
  let _, route' = Croute.to_route cr in
  Alcotest.(check (option int)) "origin rewritten" (Some 65000) (Route.origin_as route');
  Alcotest.(check (option int)) "first AS untouched" (Some 64501) (Route.neighbor_as route')

let test_origin_as_rewrite_empty_path () =
  let bare = Route.make ~as_path:Asn.Path.empty ~next_hop:1 () in
  let cr = Croute.of_route (p "10.0.0.0/8") bare in
  let cr = { cr with Croute.origin_as = Cval.of_int ~width:32 65000 } in
  let _, route' = Croute.to_route cr in
  Alcotest.(check (option int)) "origin set on empty path" (Some 65000)
    (Route.origin_as route')

let test_prepend_to_empty_path () =
  (* a locally originated route's empty path, prepended by a filter: the
     prepended AS becomes the origin, and 0 — of_route's "no origin" —
     is not grafted over it *)
  let bare = Route.make ~as_path:Asn.Path.empty ~next_hop:1 () in
  let cr = Croute.prepend_as (Croute.of_route (p "10.0.0.0/8") bare) 3001 in
  let _, route' = Croute.to_route cr in
  Alcotest.(check (list int)) "the prepended path" [ 3001 ] (Asn.Path.as_list route'.Route.as_path);
  let cr = Croute.prepend_as cr 3002 in
  let _, route' = Croute.to_route cr in
  Alcotest.(check (list int)) "prepended twice" [ 3002; 3001 ]
    (Asn.Path.as_list route'.Route.as_path)

let test_modifiers () =
  let cr = Croute.of_route (p "10.0.0.0/8") route in
  let cr = Croute.with_local_pref cr (Cval.of_int ~width:32 50) in
  let cr = Croute.with_med cr (Cval.of_int ~width:32 60) in
  let cr = Croute.add_community cr (Community.make 9 9) in
  let cr = Croute.prepend_as cr 64510 in
  let _, r = Croute.to_route cr in
  Alcotest.(check (option int)) "lp" (Some 50) r.Route.local_pref;
  Alcotest.(check (option int)) "med" (Some 60) r.Route.med;
  Alcotest.(check bool) "community added" true (Route.has_community r (Community.make 9 9));
  Alcotest.(check (option int)) "prepended" (Some 64510) (Route.neighbor_as r)

let test_remove_community () =
  let cr = Croute.of_route (p "10.0.0.0/8") route in
  let cr = Croute.remove_community cr (Community.make 1 2) in
  Alcotest.(check int) "removed" 0 (List.length cr.Croute.communities)

let test_len_clamped () =
  (* a symbolic length beyond 32 concretizes to a valid prefix *)
  let cr = Croute.of_route (p "10.0.0.0/8") route in
  let cr = { cr with Croute.net_len = Cval.of_int ~width:8 200 } in
  Alcotest.(check int) "clamped to 32" 32 (Prefix.len (Croute.prefix_of cr))

(* ---- Config_types ---- *)

let test_default_peer () =
  let pc = Config_types.default_peer ~name:"x" ~neighbor:(Ipv4.of_string "1.1.1.1") ~remote_as:1 in
  Alcotest.(check (float 0.0)) "hold" 90.0 pc.Config_types.hold_time;
  Alcotest.(check (float 0.0)) "keepalive" 30.0 pc.Config_types.keepalive_time;
  Alcotest.(check bool) "import all" true (pc.Config_types.import_policy = Config_types.All)

let test_find_helpers () =
  let f = Filter.accept_all "f1" in
  let pc = Config_types.default_peer ~name:"x" ~neighbor:(Ipv4.of_string "1.1.1.1") ~remote_as:1 in
  let cfg =
    Config_types.make ~router_id:(Ipv4.of_string "9.9.9.9") ~local_as:99 ~peers:[ pc ]
      ~filters:[ f ] ()
  in
  Alcotest.(check bool) "find_filter hit" true (Config_types.find_filter cfg "f1" <> None);
  Alcotest.(check bool) "find_filter miss" true (Config_types.find_filter cfg "nope" = None);
  Alcotest.(check bool) "find_peer hit" true
    (Config_types.find_peer cfg (Ipv4.of_string "1.1.1.1") <> None);
  Alcotest.(check bool) "find_peer miss" true
    (Config_types.find_peer cfg (Ipv4.of_string "2.2.2.2") = None)

let test_pp_policy () =
  let f = Filter.reject_all "guard" in
  Alcotest.(check string) "all" "all" (Format.asprintf "%a" Config_types.pp_policy Config_types.All);
  Alcotest.(check string) "none" "none"
    (Format.asprintf "%a" Config_types.pp_policy Config_types.Nothing);
  Alcotest.(check string) "filter" "filter guard"
    (Format.asprintf "%a" Config_types.pp_policy (Config_types.Use_filter f))

(* ---- message-decoder fuzz: random bytes must never raise ---- *)

let prop_decode_total =
  QCheck.Test.make ~name:"Msg.decode is total on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 100))
    (fun s ->
      match Msg.decode (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

let prop_decode_corrupted_total =
  (* single-byte corruptions of a valid message: decode never raises, and
     either fails cleanly or yields a message *)
  QCheck.Test.make ~name:"Msg.decode is total on corrupted updates" ~count:500
    QCheck.(pair (int_bound 57) (int_bound 255))
    (fun (i, b) ->
      let base =
        Msg.encode
          (Msg.Update
             { withdrawn = [];
               attrs = Route.to_attrs route;
               nlri = [ p "203.0.113.0/24" ];
             })
      in
      let bytes = Bytes.copy base in
      Bytes.set bytes (i mod Bytes.length bytes) (Char.chr b);
      match Msg.decode bytes with
      | Ok _ | Error _ -> true)

let prop_attr_decode_total =
  QCheck.Test.make ~name:"Attr.decode_list is total on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun s ->
      match Attr.decode_list ~as4:true (Dice_wire.Rbuf.of_bytes (Bytes.of_string s)) with
      | Ok _ | Error _ -> true)

let prop_config_parse_total =
  (* the parser must raise only its documented exceptions *)
  QCheck.Test.make ~name:"Config_parser raises only Parse_error/Lex_error" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 80))
    (fun s ->
      match Config_parser.parse s with
      | _ -> true
      | exception Config_parser.Parse_error _ -> true
      | exception Config_lexer.Lex_error _ -> true)

let suite =
  [ ("croute roundtrip", `Quick, test_of_to_roundtrip);
    ("croute prefix_of", `Quick, test_prefix_of);
    ("croute med/lp flags", `Quick, test_flags);
    ("croute origin rewrite", `Quick, test_origin_as_rewrite);
    ("croute origin rewrite empty path", `Quick, test_origin_as_rewrite_empty_path);
    ("croute prepend to an empty path", `Quick, test_prepend_to_empty_path);
    ("croute modifiers", `Quick, test_modifiers);
    ("croute remove community", `Quick, test_remove_community);
    ("croute length clamped", `Quick, test_len_clamped);
    ("config default peer", `Quick, test_default_peer);
    ("config find helpers", `Quick, test_find_helpers);
    ("config pp_policy", `Quick, test_pp_policy);
    QCheck_alcotest.to_alcotest prop_decode_total;
    QCheck_alcotest.to_alcotest prop_decode_corrupted_total;
    QCheck_alcotest.to_alcotest prop_attr_decode_total;
    QCheck_alcotest.to_alcotest prop_config_parse_total
  ]
