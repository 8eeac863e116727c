(* Tests for the Router: import/export, decision integration,
   checkpointing, and the concolic import entry point. *)
open Dice_inet
open Dice_bgp
open Dice_concolic

let p = Prefix.of_string
let ip = Ipv4.of_string

(* A router with two eBGP peers and a static route. *)
let config () =
  Config_parser.parse
    {|
    router id 10.0.0.1;
    local as 64510;
    filter cust_in {
      if net ~ [ 203.0.113.0/24{24,28} ] then { bgp_local_pref = 120; accept; }
      reject;
    }
    protocol static { route 192.0.2.0/24 via 10.0.0.1; }
    protocol bgp customer {
      neighbor 10.0.1.2 as 64501;
      import filter cust_in;
      export all;
    }
    protocol bgp transit {
      neighbor 10.0.2.2 as 64700;
      import all;
      export all;
    }
    |}

let customer = ip "10.0.1.2"
let transit = ip "10.0.2.2"

(* Drive a peer's FSM to Established directly. *)
let establish router peer remote_as =
  ignore (Router.handle_event router ~peer Fsm.Manual_start);
  ignore (Router.handle_event router ~peer Fsm.Tcp_connected);
  let o =
    { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90; bgp_id = peer;
      capabilities = [ Msg.Cap_as4 remote_as ] }
  in
  ignore (Router.handle_msg router ~peer (Msg.Open o));
  Router.handle_msg router ~peer Msg.Keepalive

let ready () =
  let r = Router.create (config ()) in
  ignore (establish r customer 64501);
  ignore (establish r transit 64700);
  r

let attrs ?(path = [ 64700; 64701 ]) ?(origin = Attr.Igp) ?med ?communities () =
  [ Attr.Origin origin; Attr.As_path [ Asn.Path.Seq path ]; Attr.Next_hop (ip "10.9.9.9") ]
  @ (match med with Some m -> [ Attr.Med m ] | None -> [])
  @ (match communities with Some cs -> [ Attr.Communities cs ] | None -> [])

let announce router ~peer ?path ?origin ?med ?communities prefix =
  Router.handle_msg router ~peer
    (Msg.Update { withdrawn = []; attrs = attrs ?path ?origin ?med ?communities (); nlri = [ p prefix ] })

let withdraw router ~peer prefix =
  Router.handle_msg router ~peer (Msg.Update { withdrawn = [ p prefix ]; attrs = []; nlri = [] })

let to_peer_updates outputs =
  List.filter_map
    (function
      | Router.To_peer (dst, Msg.Update u) -> Some (dst, u)
      | _ -> None)
    outputs

let test_create_with_statics () =
  let r = Router.create (config ()) in
  Alcotest.(check int) "static installed" 1 (Rib.Loc.cardinal (Router.loc_rib r));
  match Router.best_route r (p "192.0.2.0/24") with
  | Some e -> Alcotest.(check bool) "static src" true (e.Rib.Loc.src = Route.static_src)
  | None -> Alcotest.fail "static route missing"

let test_session_establishment () =
  let r = Router.create (config ()) in
  Alcotest.(check (option string)) "idle initially" (Some "Idle")
    (Option.map Fsm.state_to_string (Router.peer_state r customer));
  ignore (establish r customer 64501);
  Alcotest.(check (option string)) "established" (Some "Established")
    (Option.map Fsm.state_to_string (Router.peer_state r customer))

let test_open_wrong_as_rejected () =
  let r = Router.create (config ()) in
  ignore (Router.handle_event r ~peer:customer Fsm.Manual_start);
  ignore (Router.handle_event r ~peer:customer Fsm.Tcp_connected);
  let o =
    { Msg.version = 4; my_as = 65000; hold_time = 90; bgp_id = customer; capabilities = [] }
  in
  let outs = Router.handle_msg r ~peer:customer (Msg.Open o) in
  Alcotest.(check bool) "notification sent" true
    (List.exists
       (function Router.To_peer (_, Msg.Notification n) -> n.Msg.code = 2 | _ -> false)
       outs);
  Alcotest.(check (option string)) "back to idle" (Some "Idle")
    (Option.map Fsm.state_to_string (Router.peer_state r customer))

let test_initial_advertisement () =
  let r = Router.create (config ()) in
  let outs = establish r transit 64700 in
  let updates = to_peer_updates outs in
  (* the static route is advertised to the newly established peer *)
  Alcotest.(check bool) "announces static" true
    (List.exists (fun (_, u) -> List.mem (p "192.0.2.0/24") u.Msg.nlri) updates)

let test_import_and_propagate () =
  let r = ready () in
  let outs = announce r ~peer:transit "8.8.8.0/24" in
  (match Router.best_route r (p "8.8.8.0/24") with
  | Some e ->
    Alcotest.(check (option int)) "origin AS" (Some 64701) (Route.origin_as e.Rib.Loc.route);
    Alcotest.(check bool) "from transit" true (e.Rib.Loc.src.Route.peer_addr = transit)
  | None -> Alcotest.fail "route not installed");
  (* propagated to the customer with our AS prepended and next-hop self *)
  let cust_updates = List.filter (fun (d, _) -> d = customer) (to_peer_updates outs) in
  match cust_updates with
  | [ (_, u) ] -> begin
    match Route.of_attrs u.Msg.attrs with
    | Ok route ->
      Alcotest.(check (option int)) "prepended" (Some 64510) (Route.neighbor_as route);
      Alcotest.(check string) "next hop self" "10.0.0.1" (Ipv4.to_string route.Route.next_hop);
      Alcotest.(check (option int)) "no local pref on eBGP" None route.Route.local_pref
    | Error e -> Alcotest.failf "bad attrs: %s" (Attr.error_to_string e)
  end
  | _ -> Alcotest.fail "expected exactly one update to the customer"

let test_split_horizon () =
  let r = ready () in
  let outs = announce r ~peer:transit "8.8.8.0/24" in
  let back = List.filter (fun (d, _) -> d = transit) (to_peer_updates outs) in
  Alcotest.(check int) "not advertised back" 0 (List.length back)

let test_import_filter_rejects () =
  let r = ready () in
  ignore (announce r ~peer:customer ~path:[ 64501 ] "10.99.0.0/16");
  Alcotest.(check bool) "rejected by policy" true
    (Router.best_route r (p "10.99.0.0/16") = None)

let test_import_filter_accepts_with_lp () =
  let r = ready () in
  ignore (announce r ~peer:customer ~path:[ 64501 ] "203.0.113.0/24");
  match Router.best_route r (p "203.0.113.0/24") with
  | Some e ->
    Alcotest.(check (option int)) "filter set lp" (Some 120) e.Rib.Loc.route.Route.local_pref
  | None -> Alcotest.fail "expected acceptance"

let test_loop_detection () =
  let r = ready () in
  (* path contains our own AS: must be dropped *)
  ignore (announce r ~peer:transit ~path:[ 64700; 64510; 64702 ] "9.9.9.0/24");
  Alcotest.(check bool) "looped route dropped" true (Router.best_route r (p "9.9.9.0/24") = None)

let test_withdraw () =
  let r = ready () in
  ignore (announce r ~peer:transit "8.8.8.0/24");
  let outs = withdraw r ~peer:transit "8.8.8.0/24" in
  Alcotest.(check bool) "removed" true (Router.best_route r (p "8.8.8.0/24") = None);
  (* and the customer hears the withdrawal *)
  let wd =
    List.exists
      (fun (d, u) -> d = customer && List.mem (p "8.8.8.0/24") u.Msg.withdrawn)
      (to_peer_updates outs)
  in
  Alcotest.(check bool) "withdrawal propagated" true wd

let test_decision_prefers_better_peer () =
  let r = ready () in
  ignore (announce r ~peer:transit ~path:[ 64700; 64701; 64702 ] "7.7.0.0/16");
  (* the customer announces the same prefix with a shorter path but it
     fails the import filter, so transit stays *)
  ignore (announce r ~peer:customer ~path:[ 64501 ] "7.7.0.0/16");
  match Router.best_route r (p "7.7.0.0/16") with
  | Some e -> Alcotest.(check bool) "transit still best" true (e.Rib.Loc.src.Route.peer_addr = transit)
  | None -> Alcotest.fail "route lost"

let test_decision_local_pref_beats_path () =
  let r = ready () in
  ignore (announce r ~peer:transit ~path:[ 64700 ] "203.0.113.0/24");
  (* customer route gets LOCAL_PREF 120 from the filter and must win over
     the shorter transit path (default 100) *)
  ignore (announce r ~peer:customer ~path:[ 64501; 64999 ] "203.0.113.0/24");
  match Router.best_route r (p "203.0.113.0/24") with
  | Some e -> Alcotest.(check bool) "customer wins" true (e.Rib.Loc.src.Route.peer_addr = customer)
  | None -> Alcotest.fail "route missing"

let test_no_export_community () =
  let r = ready () in
  let outs =
    announce r ~peer:transit ~communities:[ Community.no_export ] "6.6.6.0/24"
  in
  Alcotest.(check bool) "installed locally" true (Router.best_route r (p "6.6.6.0/24") <> None);
  Alcotest.(check int) "not exported" 0 (List.length (to_peer_updates outs))

let test_treat_as_withdraw_on_bad_attrs () =
  let r = ready () in
  ignore (announce r ~peer:transit "5.5.5.0/24");
  (* same prefix, broken attribute list (no ORIGIN) — decoded Updates
     can't represent this, so drive process via handle_bytes with a raw
     crafted message that passes the wire decoder but fails Route.of_attrs:
     not constructible; instead send attrs missing entirely *)
  let u = Msg.Update { withdrawn = []; attrs = []; nlri = [ p "5.5.5.0/24" ] } in
  ignore (Router.handle_msg r ~peer:transit u);
  Alcotest.(check bool) "previous announcement withdrawn" true
    (Router.best_route r (p "5.5.5.0/24") = None)

let test_session_down_flushes () =
  let r = ready () in
  ignore (announce r ~peer:transit "8.8.8.0/24");
  ignore (Router.handle_event r ~peer:transit Fsm.Tcp_failed);
  Alcotest.(check bool) "routes flushed" true (Router.best_route r (p "8.8.8.0/24") = None);
  Alcotest.(check (list string)) "only customer established" [ "10.0.1.2" ]
    (List.map Ipv4.to_string (Router.established_peers r))

let test_updates_counter () =
  let r = ready () in
  let before = Router.updates_processed r in
  ignore (announce r ~peer:transit "8.8.8.0/24");
  ignore (withdraw r ~peer:transit "8.8.8.0/24");
  Alcotest.(check bool) "counted" true (Router.updates_processed r > before)

let test_malformed_bytes_notification () =
  let r = ready () in
  let outs = Router.handle_bytes r ~peer:transit (Bytes.make 30 '\x00') in
  Alcotest.(check bool) "header error notification" true
    (List.exists
       (function Router.To_peer (_, Msg.Notification n) -> n.Msg.code = 1 | _ -> false)
       outs)

(* ---- snapshot / restore ---- *)

let test_snapshot_roundtrip () =
  let r = ready () in
  ignore (announce r ~peer:transit "8.8.8.0/24");
  ignore (announce r ~peer:customer ~path:[ 64501 ] "203.0.113.0/24");
  let image = Router.snapshot r in
  let r' = Router.restore (config ()) image in
  Alcotest.(check int) "loc-rib size" (Rib.Loc.cardinal (Router.loc_rib r))
    (Rib.Loc.cardinal (Router.loc_rib r'));
  Alcotest.(check (list string)) "established peers"
    (List.map Ipv4.to_string (Router.established_peers r))
    (List.map Ipv4.to_string (Router.established_peers r'));
  Alcotest.(check int) "updates counter" (Router.updates_processed r)
    (Router.updates_processed r');
  (* routes survive byte-for-byte *)
  (match (Router.best_route r (p "8.8.8.0/24"), Router.best_route r' (p "8.8.8.0/24")) with
  | Some a, Some b ->
    Alcotest.(check bool) "route equal" true (Route.equal a.Rib.Loc.route b.Rib.Loc.route);
    Alcotest.(check bool) "src equal" true (a.Rib.Loc.src = b.Rib.Loc.src)
  | _ -> Alcotest.fail "route lost in snapshot");
  (* a second snapshot of the restored router is identical *)
  Alcotest.(check bytes) "deterministic" image (Router.snapshot r')

let test_snapshot_overflow_roundtrip () =
  (* 80-AS paths do not fit one slot, so every entry spills to the
     overflow region; with many spilled slots the region's order must be
     the one restore reads back *)
  let r = ready () in
  let path = 64700 :: List.init 79 (fun i -> 65000 + i) in
  for i = 0 to 39 do
    ignore (announce r ~peer:transit ~path (Printf.sprintf "100.%d.0.0/16" i))
  done;
  let image = Router.snapshot r in
  let r' = Router.restore (config ()) image in
  Alcotest.(check bytes) "restore then snapshot" image (Router.snapshot r');
  Alcotest.(check bytes) "clone of the restored router" image
    (Router.snapshot (Router.clone (Router.restore (config ()) image)));
  (* the next image of the same router: withdrawn spilled routes leave
     the overflow region, re-announced short ones leave it for their
     slot *)
  for i = 0 to 9 do
    ignore (withdraw r ~peer:transit (Printf.sprintf "100.%d.0.0/16" i))
  done;
  for i = 10 to 14 do
    ignore (announce r ~peer:transit (Printf.sprintf "100.%d.0.0/16" i))
  done;
  let image = Router.snapshot r in
  Alcotest.(check bytes) "after withdrawals, restore then snapshot" image
    (Router.snapshot (Router.restore (config ()) image))

let test_snapshot_patch_is_the_write_set () =
  (* a clone's patch against its base costs what the clone wrote: an
     unchanged clone rewrites the header alone, and one more route its
     three entries' slots (Loc-RIB, Adj-RIB-In, the customer's
     Adj-RIB-Out) and the 4-byte overflow count the new slots pushed
     along — not the 600-slot table *)
  let r = ready () in
  for i = 0 to 199 do
    ignore (announce r ~peer:transit (Printf.sprintf "100.%d.%d.0/24" (i / 100) (i mod 100)))
  done;
  let base = Router.clone r in
  let image = Router.snapshot base in
  let written (_, writes) = List.fold_left (fun n (_, b) -> n + Bytes.length b) 0 writes in
  let len, writes = Router.snapshot_patch ~base (Router.clone base) in
  Alcotest.(check int) "an unchanged clone keeps the length" (Bytes.length image) len;
  Alcotest.(check int) "and rewrites only the header" 1 (List.length writes);
  let c = Router.clone base in
  ignore (announce c ~peer:transit "100.9.0.0/24");
  let patch = Router.snapshot_patch ~base c in
  Alcotest.(check int) "one route: three slots past the old end" (Bytes.length image + (3 * 256))
    (fst patch);
  Alcotest.(check bool) "and little more than three slots written" true
    (written patch <= (3 * 256) + 256 + 4)

let test_snapshot_restore_behaves () =
  (* the restored router must *behave* identically, not just look alike *)
  let r = ready () in
  ignore (announce r ~peer:transit "8.8.8.0/24");
  let r' = Router.restore (config ()) (Router.snapshot r) in
  ignore (withdraw r ~peer:transit "8.8.8.0/24");
  ignore (withdraw r' ~peer:transit "8.8.8.0/24");
  Alcotest.(check bytes) "same evolution" (Router.snapshot r) (Router.snapshot r')

let test_restore_bad_image_rejected () =
  (match Router.restore (config ()) (Bytes.of_string "garbage!") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  match Router.restore (config ()) (Bytes.of_string "NOTMAGIC") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ---- import_concolic ---- *)

let test_import_concolic_accept () =
  let r = ready () in
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64501 ] ] ~next_hop:customer ()
  in
  let cr = Croute.of_route (p "203.0.113.0/24") route in
  let ctx = Engine.null in
  let outcome = Router.import_concolic ~ctx r ~peer:customer cr in
  Alcotest.(check bool) "accepted" true outcome.Import.accepted;
  Alcotest.(check bool) "installed" true outcome.Import.installed;
  Alcotest.(check bool) "no previous" true (outcome.Import.previous_best = None)

let test_import_concolic_reject () =
  let r = ready () in
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64501 ] ] ~next_hop:customer ()
  in
  let cr = Croute.of_route (p "10.99.0.0/16") route in
  let outcome = Router.import_concolic ~ctx:Engine.null r ~peer:customer cr in
  Alcotest.(check bool) "rejected" false outcome.Import.accepted;
  Alcotest.(check bool) "not installed" false outcome.Import.installed

let test_import_concolic_previous_best () =
  let r = ready () in
  ignore (announce r ~peer:transit ~path:[ 64700; 64999 ] "203.0.113.0/24");
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64501 ] ] ~next_hop:customer ()
  in
  let cr = Croute.of_route (p "203.0.113.0/24") route in
  let outcome = Router.import_concolic ~ctx:Engine.null r ~peer:customer cr in
  (match outcome.Import.previous_best with
  | Some e ->
    Alcotest.(check (option int)) "old origin" (Some 64999) (Route.origin_as e.Rib.Loc.route)
  | None -> Alcotest.fail "expected a previous best");
  Alcotest.(check bool) "new route wins (lp 120)" true outcome.Import.installed

let test_import_concolic_unknown_peer () =
  let r = ready () in
  let route = Route.make ~as_path:[ Asn.Path.Seq [ 1 ] ] ~next_hop:customer () in
  let cr = Croute.of_route (p "1.0.0.0/8") route in
  match Router.import_concolic ~ctx:Engine.null r ~peer:(ip "1.2.3.4") cr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_import_concolic_records_constraints () =
  let r = ready () in
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64501 ] ] ~next_hop:customer ()
  in
  let cr =
    Dice_core.Symbolize.croute ctx ~tag:"t" ~prefix:(p "203.0.113.0/24") ~route
  in
  let outcome = Router.import_concolic ~ctx r ~peer:customer cr in
  Alcotest.(check bool) "accepted" true outcome.Import.accepted;
  Alcotest.(check bool) "path constraints recorded" true
    (Dice_concolic.Path.length (Engine.path ctx) > 0)

(* ---- behaviour pin across table layouts ---- *)

(* One router with three sessions (a filtered eBGP customer, an eBGP
   transit that exports only short prefixes, an iBGP peer) and two
   statics, driven by a seeded message stream. Everything it says and
   every image it makes is hashed, so a table rewrite that changes an
   output, its order, a slot or a patch byte shows here. *)
let pin_config () =
  Config_parser.parse
    {|
    router id 10.0.0.1;
    local as 64510;
    filter cust_in {
      if net ~ [ 100.64.0.0/10{10,24} ] then { bgp_local_pref = 120; accept; }
      if bgp_med > 150 then reject;
      accept;
    }
    filter short_only { if net.len > 22 then reject; accept; }
    protocol static { route 192.0.2.0/24 via 10.0.0.1; route 100.64.4.0/24 via 10.0.0.1; }
    protocol bgp customer { neighbor 10.0.1.2 as 64501; import filter cust_in; export all; }
    protocol bgp transit { neighbor 10.0.2.2 as 64700; import all; export filter short_only; }
    protocol bgp inside { neighbor 10.0.3.2 as 64510; import all; export all; }
    |}

let pin_peers = [| (customer, 64501); (transit, 64700); (ip "10.0.3.2", 64510) |]

(* 96 prefixes over three /16s, lengths 16 to 24, so they nest *)
let pin_prefixes =
  Array.init 96 (fun i ->
      let base = [| 0x64400000; 0x64410000; 0xC6120000 |].(i mod 3) in
      let len = 16 + (i * 7 mod 9) in
      let net = base lor ((i * 2654435761) land 0xFFFF) in
      Prefix.make (net land (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF) len)

type pin_op =
  | Pin_announce of int * int list * int  (* peer, prefix indices, attribute seed *)
  | Pin_withdraw of int * int list
  | Pin_malformed of int * int  (* UPDATE without NEXT_HOP: treat-as-withdraw *)
  | Pin_bounce of int  (* NOTIFICATION, then the session comes back *)

let pin_attrs peer seed =
  let remote_as = snd pin_peers.(peer) in
  let hop k = 65000 + ((seed lsr (3 * k)) land 15) in
  let tail = List.init (1 + (seed land 3)) hop in
  let tail = if seed mod 53 = 0 then tail @ [ 64510 ] else tail in
  let path = if remote_as = 64510 then tail else remote_as :: tail in
  [ Attr.Origin [| Attr.Igp; Attr.Egp; Attr.Incomplete |].(seed / 7 mod 3);
    Attr.As_path [ Asn.Path.Seq path ];
    Attr.Next_hop (fst pin_peers.(peer)) ]
  @ (if seed mod 4 = 0 then [ Attr.Med (seed / 11 mod 200) ] else [])
  @ (if remote_as = 64510 then [ Attr.Local_pref (80 + (seed / 13 mod 60)) ] else [])
  @ if seed mod 17 = 0 then [ Attr.Communities [ Community.no_export ] ] else []

(* Feed one operation; every output it produces, in order. *)
let pin_apply r op =
  let addr peer = fst pin_peers.(peer) in
  let update peer u = Router.handle_msg r ~peer:(addr peer) (Msg.Update u) in
  let nets = List.map (fun i -> pin_prefixes.(i)) in
  match op with
  | Pin_announce (peer, ps, seed) ->
    update peer { withdrawn = []; attrs = pin_attrs peer seed; nlri = nets ps }
  | Pin_withdraw (peer, ps) -> update peer { withdrawn = nets ps; attrs = []; nlri = [] }
  | Pin_malformed (peer, i) ->
    let attrs = List.filter (function Attr.Next_hop _ -> false | _ -> true) (pin_attrs peer i) in
    update peer { withdrawn = []; attrs; nlri = [ pin_prefixes.(i) ] }
  | Pin_bounce peer ->
    let down =
      Router.handle_msg r ~peer:(addr peer)
        (Msg.Notification { Msg.code = 6; subcode = 4; data = Bytes.empty })
    in
    let up = establish r (addr peer) (snd pin_peers.(peer)) in
    down @ up

let pin_ready () =
  let r = Router.create (pin_config ()) in
  Array.iter (fun (peer, remote_as) -> ignore (establish r peer remote_as)) pin_peers;
  r

let render_output buf o =
  let tag c a =
    Buffer.add_char buf c;
    Buffer.add_string buf (Ipv4.to_string a)
  in
  match o with
  | Router.To_peer (a, m) ->
    tag 'T' a;
    Buffer.add_bytes buf (Msg.encode m)
  | Router.Connect_request a -> tag 'C' a
  | Router.Close_connection a -> tag 'X' a
  | Router.Set_timer (a, tm, d) ->
    tag 'S' a;
    Buffer.add_string buf (Printf.sprintf "%d/%g" (Hashtbl.hash tm) d)
  | Router.Clear_timer (a, tm) ->
    tag 'K' a;
    Buffer.add_string buf (string_of_int (Hashtbl.hash tm))
  | Router.Session_up a -> tag 'U' a
  | Router.Session_down (a, why) ->
    tag 'D' a;
    Buffer.add_string buf why

(* [base_image] patched by [snapshot_patch]'s writes *)
let patched base_image (len, writes) =
  let img = Bytes.make len '\000' in
  Bytes.blit base_image 0 img 0 (Int.min len (Bytes.length base_image));
  List.iter (fun (off, b) -> Bytes.blit b 0 img off (Bytes.length b)) writes;
  img

let test_bird_behaviour_pin () =
  let state = ref 541 in
  let draw n =
    state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    (!state lsr 16) mod n
  in
  let prefixes () = List.init (1 + draw 3) (fun _ -> draw (Array.length pin_prefixes)) in
  let r = pin_ready () in
  let buf = Buffer.create (1 lsl 20) in
  let base = ref (Router.clone r) in
  let base_image = ref (Router.snapshot !base) in
  let outputs = ref 0 in
  for i = 1 to 3000 do
    let peer = draw 3 in
    let op =
      if i = 1000 || i = 2200 then Pin_bounce (i / 1000)
      else
        match draw 20 with
        | 0 -> Pin_malformed (peer, draw (Array.length pin_prefixes))
        | k when k < 8 -> Pin_withdraw (peer, prefixes ())
        | _ -> Pin_announce (peer, prefixes (), draw 1_000_000)
    in
    List.iter
      (fun o ->
        incr outputs;
        render_output buf o)
      (pin_apply r op);
    if i mod 500 = 0 then begin
      Buffer.add_string buf (Digest.to_hex (Digest.bytes (Router.snapshot r)));
      let c = Router.clone r in
      let len, writes = Router.snapshot_patch ~base:!base c in
      let writes = List.sort (fun (a, _) (b, _) -> Int.compare a b) writes in
      Buffer.add_string buf (string_of_int len);
      List.iter
        (fun (off, b) ->
          Buffer.add_string buf (string_of_int off);
          Buffer.add_bytes buf b)
        writes;
      let image = patched !base_image (len, writes) in
      Alcotest.(check bytes)
        (Printf.sprintf "patched image at %d is a snapshot" i)
        (Router.snapshot (Router.clone c)) image;
      base := c;
      base_image := image
    end
  done;
  Alcotest.(check bool) "the stream reached every kind of output" true (!outputs > 3000);
  Alcotest.(check string) "outputs, snapshots and patches"
    "3c3447c1fe6841998a6dbbbbdbd8b2c0" (Digest.to_hex (Digest.string (Buffer.contents buf)))

let arb_pin_ops =
  let open QCheck.Gen in
  let peer = int_bound 2 in
  let nets = list_size (int_range 1 3) (int_bound (Array.length pin_prefixes - 1)) in
  let op =
    frequency
      [ (10, map3 (fun pe ps s -> Pin_announce (pe, ps, s)) peer nets (int_bound 1_000_000));
        (6, map2 (fun pe ps -> Pin_withdraw (pe, ps)) peer nets);
        (1, map2 (fun pe i -> Pin_malformed (pe, i)) peer (int_bound (Array.length pin_prefixes - 1)));
        (1, map (fun pe -> Pin_bounce pe) peer) ]
  in
  QCheck.make (pair (list_size (int_range 0 60) op) (list_size (int_range 0 60) op))

let prop_bird_images =
  QCheck.Test.make ~count:100
    ~name:"BIRD restore re-snapshots byte-equal, and a clone's patch is its snapshot" arb_pin_ops
    (fun (before, after) ->
      let r = pin_ready () in
      List.iter (fun op -> ignore (pin_apply r op)) before;
      let image = Router.snapshot r in
      let restored = Bytes.equal image (Router.snapshot (Router.restore (pin_config ()) image)) in
      let base = Router.clone r in
      let base_image = Router.snapshot base in
      List.iter (fun op -> ignore (pin_apply r op)) after;
      let c = Router.clone r in
      let image = patched base_image (Router.snapshot_patch ~base c) in
      restored && Bytes.equal image (Router.snapshot (Router.clone c)))

let suite =
  [ ("create with statics", `Quick, test_create_with_statics);
    ("session establishment", `Quick, test_session_establishment);
    ("OPEN with wrong AS rejected", `Quick, test_open_wrong_as_rejected);
    ("initial advertisement", `Quick, test_initial_advertisement);
    ("import and propagate", `Quick, test_import_and_propagate);
    ("split horizon", `Quick, test_split_horizon);
    ("import filter rejects", `Quick, test_import_filter_rejects);
    ("import filter accepts with lp", `Quick, test_import_filter_accepts_with_lp);
    ("loop detection", `Quick, test_loop_detection);
    ("withdraw", `Quick, test_withdraw);
    ("decision prefers valid peer", `Quick, test_decision_prefers_better_peer);
    ("local-pref beats path length", `Quick, test_decision_local_pref_beats_path);
    ("no-export community", `Quick, test_no_export_community);
    ("treat-as-withdraw", `Quick, test_treat_as_withdraw_on_bad_attrs);
    ("session down flushes", `Quick, test_session_down_flushes);
    ("updates counter", `Quick, test_updates_counter);
    ("malformed bytes notification", `Quick, test_malformed_bytes_notification);
    ("snapshot roundtrip", `Quick, test_snapshot_roundtrip);
    ("snapshot overflow roundtrip", `Quick, test_snapshot_overflow_roundtrip);
    ("snapshot patch is the write set", `Quick, test_snapshot_patch_is_the_write_set);
    ("snapshot restore behaves", `Quick, test_snapshot_restore_behaves);
    ("restore bad image rejected", `Quick, test_restore_bad_image_rejected);
    ("concolic import accept", `Quick, test_import_concolic_accept);
    ("concolic import reject", `Quick, test_import_concolic_reject);
    ("concolic import previous best", `Quick, test_import_concolic_previous_best);
    ("concolic import unknown peer", `Quick, test_import_concolic_unknown_peer);
    ("concolic import records constraints", `Quick, test_import_concolic_records_constraints);
    ("BIRD behaviour pin", `Quick, test_bird_behaviour_pin);
    QCheck_alcotest.to_alcotest prop_bird_images
  ]
