(* Cross-module property tests: router state-machine invariants under
   random operation sequences, and concrete/concolic equivalence of the
   filter interpreter over random routes. *)
open Dice_inet
open Dice_bgp
open Dice_concolic
module Eventq = Dice_sim.Eventq

let ip = Ipv4.of_string

let config =
  Config_parser.parse
    {|
    router id 10.0.0.1;
    local as 64510;
    filter f {
      if net ~ [ 10.0.0.0/8{8,24}, 192.168.0.0/16+ ] then { bgp_local_pref = 120; accept; }
      if bgp_med > 100 then reject;
      accept;
    }
    protocol static { route 192.0.2.0/24 via 10.0.0.1; }
    protocol bgp a { neighbor 10.0.1.2 as 64501; import filter f; export all; }
    protocol bgp b { neighbor 10.0.2.2 as 64700; import all; export all; }
    |}

let peer_a = ip "10.0.1.2"
let peer_b = ip "10.0.2.2"

let establish router peer remote_as =
  ignore (Router.handle_event router ~peer Fsm.Manual_start);
  ignore (Router.handle_event router ~peer Fsm.Tcp_connected);
  ignore
    (Router.handle_msg router ~peer
       (Msg.Open
          { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90; bgp_id = peer;
            capabilities = [ Msg.Cap_as4 remote_as ] }));
  ignore (Router.handle_msg router ~peer Msg.Keepalive)

let ready () =
  let r = Router.create config in
  establish r peer_a 64501;
  establish r peer_b 64700;
  r

(* random router operations *)
type op =
  | Announce of int * Prefix.t * int * int option  (* peer idx, prefix, origin asn, med *)
  | Withdraw of int * Prefix.t

let arb_op =
  let open QCheck.Gen in
  let prefix =
    map
      (fun (a, l) -> Prefix.make ((a * 1103515245) land 0xFFFFFFFF) (8 + (l mod 17)))
      (pair (int_bound 5000) (int_bound 16))
  in
  let announce =
    map
      (fun (pi, pfx, origin, med) ->
        Announce (pi mod 2, pfx, 64800 + (origin mod 50),
                  if med mod 3 = 0 then Some (med mod 200) else None))
      (tup4 (int_bound 1) prefix (int_bound 49) (int_bound 199))
  in
  let withdraw = map (fun (pi, pfx) -> Withdraw (pi mod 2, pfx)) (pair (int_bound 1) prefix) in
  QCheck.make (QCheck.Gen.list_size (int_range 1 40) (oneof [ announce; withdraw ]))

let apply_op router op =
  let peer_of = function
    | 0 -> peer_a
    | _ -> peer_b
  in
  match op with
  | Announce (pi, prefix, origin, med) ->
    let route =
      Route.make ~origin:Attr.Igp
        ~as_path:[ Asn.Path.Seq [ (if pi = 0 then 64501 else 64700); origin ] ]
        ?med:(Some med) ~next_hop:(peer_of pi) ()
    in
    ignore
      (Router.handle_msg router ~peer:(peer_of pi)
         (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ prefix ] }))
  | Withdraw (pi, prefix) ->
    ignore
      (Router.handle_msg router ~peer:(peer_of pi)
         (Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] }))

let prop_snapshot_roundtrip_after_ops =
  QCheck.Test.make ~name:"router snapshot/restore identity under random operations"
    ~count:60 arb_op (fun ops ->
      let r = ready () in
      List.iter (apply_op r) ops;
      let image = Router.snapshot r in
      let r' = Router.restore config image in
      Bytes.equal image (Router.snapshot r'))

let prop_snapshot_stable_layout =
  (* two snapshots separated by [k] operations share most slots: the image
     length grows monotonically and common prefixes of unchanged entries
     stay at identical offsets — verified via the CoW page metric: the
     fraction of changed pages is bounded by changed slots *)
  QCheck.Test.make ~name:"snapshot layout is slot-stable" ~count:40
    QCheck.(pair arb_op (int_bound 3))
    (fun (ops, extra) ->
      let r = ready () in
      List.iter (apply_op r) ops;
      let store = Dice_checkpoint.Store.create ~page_size:256 () in
      let s1 = Dice_checkpoint.Store.capture store (Router.snapshot r) in
      (* apply a handful more operations *)
      let more =
        List.filteri (fun i _ -> i <= extra) ops
      in
      List.iter (apply_op r) more;
      let s2 = Dice_checkpoint.Store.capture store (Router.snapshot r) in
      let changed = Dice_checkpoint.Store.unique_pages s2 ~relative_to:s1 in
      (* each op touches at most ~4 slots (adj-in, loc, 2x adj-out), each
         spanning at most 2 pages at this page size, plus the header *)
      changed <= (List.length more * 8) + 4)

let prop_loc_rib_consistent_with_adj =
  QCheck.Test.make ~name:"every Loc-RIB route is backed by an Adj-RIB-In or a static"
    ~count:60 arb_op (fun ops ->
      let r = ready () in
      List.iter (apply_op r) ops;
      (* each session's last word on each prefix *)
      let last = Hashtbl.create 64 in
      List.iter
        (function
          | Announce (pi, prefix, origin, med) -> Hashtbl.replace last (pi, prefix) (origin, med)
          | Withdraw (pi, prefix) -> Hashtbl.remove last (pi, prefix))
        ops;
      List.for_all
        (fun (prefix, (e : Rib.Loc.entry)) ->
          if e.Rib.Loc.src = Route.static_src then true
          else begin
            let peer = e.Rib.Loc.src.Route.peer_addr in
            let route = e.Rib.Loc.route in
            Router.learned_from r ~peer prefix
            &&
            match Hashtbl.find_opt last ((if peer = peer_a then 0 else 1), prefix) with
            | Some (origin, med) -> Route.origin_as route = Some origin && route.Route.med = med
            | None -> false
          end)
        (Rib.Loc.to_list (Router.loc_rib r)))

let prop_withdraw_all_empties =
  QCheck.Test.make ~name:"announcing then withdrawing everything leaves only statics"
    ~count:60 arb_op (fun ops ->
      let r = ready () in
      List.iter (apply_op r) ops;
      (* withdraw every prefix either peer announced *)
      List.iter
        (fun op ->
          match op with
          | Announce (pi, prefix, _, _) -> apply_op r (Withdraw (pi, prefix))
          | Withdraw _ -> ())
        ops;
      Rib.Loc.cardinal (Router.loc_rib r) = 1
      && Router.best_route r (Prefix.of_string "192.0.2.0/24") <> None)

(* ---- event queue: FIFO tie-breaking ---- *)

let prop_eventq_fifo_ties =
  (* the fault-injection replay guarantee leans on this: events pushed
     at equal timestamps pop in insertion order, whatever the heap did
     to get there. Times are drawn from a tiny set so collisions are
     the common case, and pushes are interleaved with pops. *)
  QCheck.Test.make ~name:"eventq pops equal timestamps in insertion order" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 3) (int_bound 2)))
    (fun ops ->
      let q = Eventq.create () in
      let pushed = ref [] (* (time, payload) in push order, newest first *)
      and popped = ref []
      and counter = ref 0 in
      List.iter
        (fun (t, act) ->
          if act = 0 && not (Eventq.is_empty q) then
            match Eventq.pop q with
            | Some (time, v) -> popped := (time, v) :: !popped
            | None -> assert false
          else begin
            incr counter;
            let time = float_of_int t in
            Eventq.push q ~time !counter;
            pushed := (time, !counter) :: !pushed
          end)
        ops;
      let rec drain () =
        match Eventq.pop q with
        | Some (time, v) -> popped := (time, v) :: !popped; drain ()
        | None -> ()
      in
      drain ();
      let popped = List.rev !popped in
      (* every event came out exactly once *)
      List.sort compare popped = List.sort compare (List.rev !pushed)
      (* within each pop run up to an interleaved push boundary, equal
         times must preserve insertion order: payloads are the push
         counter, so for equal times they must be increasing *)
      && List.for_all
           (fun time ->
             let at_t = List.filter_map
                 (fun (t, v) -> if t = time then Some v else None) popped
             in
             List.sort compare at_t = at_t)
           [ 0.0; 1.0; 2.0; 3.0 ])

(* ---- filter interpreter: concrete and concolic agree ---- *)

let filter_under_test =
  match Config_types.find_filter config "f" with
  | Some f -> f
  | None -> assert false

let prop_filter_concolic_equiv =
  QCheck.Test.make
    ~name:"filter verdicts agree between concrete and symbolized evaluation" ~count:300
    QCheck.(triple (int_bound 0xFFFFFF) (int_bound 32) (int_bound 300))
    (fun (addr_base, len, med) ->
      let addr = (addr_base * 7919) land 0xFFFFFFFF in
      let prefix = Prefix.make addr len in
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64501 ] ]
          ~med:(Some med) ~next_hop:(ip "10.0.1.2") ()
      in
      let concrete =
        Filter_interp.run Engine.null ~source_as:64501 ~local_as:64510
          filter_under_test
          (Croute.of_route prefix route)
      in
      let space = Engine.Space.create () in
      let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
      let symbolized =
        Filter_interp.run ctx ~source_as:64501 ~local_as:64510 filter_under_test
          (Dice_core.Symbolize.croute ctx ~prefix ~route)
      in
      let verdict = function
        | Filter_interp.Accepted cr ->
          let p', r' = Croute.to_route cr in
          Some (Prefix.to_string p', r'.Route.local_pref)
        | Filter_interp.Rejected -> None
      in
      verdict concrete = verdict symbolized)

let prop_import_concolic_matches_concrete_processing =
  (* import_concolic with a null context must behave like processing the
     equivalent UPDATE *)
  QCheck.Test.make ~name:"import_concolic agrees with handle_msg" ~count:60
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 24))
    (fun (addr_base, len) ->
      let prefix = Prefix.make ((addr_base * 31) land 0xFFFFFFFF) (8 + len) in
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64501; 64900 ] ]
          ~next_hop:(ip "10.0.1.2") ()
      in
      let via_msg = ready () in
      ignore
        (Router.handle_msg via_msg ~peer:peer_a
           (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ prefix ] }));
      let via_concolic = ready () in
      let outcome =
        Router.import_concolic ~ctx:Engine.null via_concolic ~peer:peer_a
          (Croute.of_route prefix route)
      in
      let best r = Option.map (fun (e : Rib.Loc.entry) -> e.Rib.Loc.route) (Router.best_route r prefix) in
      best via_msg = best via_concolic
      && outcome.Import.accepted = (best via_msg <> None && Router.best_route via_msg prefix <> None
                                    || Router.learned_from via_msg ~peer:peer_a prefix))

let suite =
  [ QCheck_alcotest.to_alcotest prop_snapshot_roundtrip_after_ops;
    QCheck_alcotest.to_alcotest prop_snapshot_stable_layout;
    QCheck_alcotest.to_alcotest prop_loc_rib_consistent_with_adj;
    QCheck_alcotest.to_alcotest prop_withdraw_all_empties;
    QCheck_alcotest.to_alcotest prop_eventq_fifo_ties;
    QCheck_alcotest.to_alcotest prop_filter_concolic_equiv;
    QCheck_alcotest.to_alcotest prop_import_concolic_matches_concrete_processing
  ]
