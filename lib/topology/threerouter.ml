open Dice_inet
open Dice_bgp
module Net = Dice_sim.Network

let customer_as = 64501
let provider_as = 64510
let internet_as = 64700

let customer_addr = Ipv4.of_string "10.0.1.2"
let provider_addr_customer_side = Ipv4.of_string "10.0.1.1"
let provider_addr_internet_side = Ipv4.of_string "10.0.2.1"
let internet_addr = Ipv4.of_string "10.0.2.2"

let customer_prefixes =
  [ Prefix.of_string "203.0.113.0/24"; Prefix.of_string "198.51.100.0/22" ]

type filtering =
  | Correct
  | Partially_correct
  | Missing

let filtering_to_string = function
  | Correct -> "correct"
  | Partially_correct -> "partially-correct"
  | Missing -> "missing"

let provider_config filtering =
  let customer_import =
    match filtering with
    | Correct ->
      (* exactly the customer's space, allowing reasonable deaggregation *)
      {|
      filter customer_in {
        if net ~ [ 203.0.113.0/24{24,28}, 198.51.100.0/22{22,28} ] then {
          bgp_local_pref = 120;
          accept;
        }
        reject;
      }
      |}
    | Partially_correct ->
      (* the paper's §4.2 misconfiguration: the second block's filter is
         erroneously loose — it matches on the first 8 bits only, so the
         customer session can originate most of 198/8 (and in particular
         override space the provider already routes) *)
      {|
      filter customer_in {
        if net ~ [ 203.0.113.0/24{24,28}, 198.0.0.0/8{8,28} ] then {
          bgp_local_pref = 120;
          accept;
        }
        reject;
      }
      |}
    | Missing -> ""
  in
  let import_clause =
    match filtering with
    | Missing -> "import all;"
    | Correct | Partially_correct -> "import filter customer_in;"
  in
  Config_parser.parse
    (Printf.sprintf
       {|
       router id 10.0.2.1;
       local as %d;
       %s
       protocol bgp customer {
         neighbor 10.0.1.2 as %d;
         %s
         export all;
         hold time 90;
         keepalive time 30;
       }
       protocol bgp internet {
         neighbor 10.0.2.2 as %d;
         import all;
         export all;
         hold time 90;
         keepalive time 30;
       }
       anycast [ 192.88.99.0/24 ];
       |}
       provider_as customer_import customer_as import_clause internet_as)

let customer_config () =
  Config_parser.parse
    (Printf.sprintf
       {|
       router id 10.0.1.2;
       local as %d;
       protocol static {
         route 203.0.113.0/24 via 10.0.1.2;
         route 198.51.100.0/22 via 10.0.1.2;
       }
       protocol bgp provider {
         neighbor 10.0.1.1 as %d;
         import all;
         export all;
       }
       |}
       customer_as provider_as)

let internet_config () =
  Config_parser.parse
    (Printf.sprintf
       {|
       router id 10.0.2.2;
       local as %d;
       protocol bgp provider {
         neighbor 10.0.2.1 as %d;
         import all;
         export none;
       }
       |}
       internet_as provider_as)

(* The paper's Figure 2 topology, as a 3-domain spec: the hand-written
   dialect configurations above ride along as programmatic overrides, and
   the historical 10.0.{1,2}.x addressing as link address overrides. *)
let spec filtering =
  Topology.Spec.make
    ~domains:
      [ Topology.Spec.domain ~prefixes:customer_prefixes
          ~config:(customer_config ()) "customer" ~asn:customer_as;
        Topology.Spec.domain ~config:(provider_config filtering) "provider"
          ~asn:provider_as;
        Topology.Spec.domain ~config:(internet_config ()) "internet" ~asn:internet_as ]
    ~links:
      [ Topology.Spec.transit
          ~addrs:(customer_addr, provider_addr_customer_side)
          ~latency:0.005 ~customer:"customer" ~provider:"provider" ();
        Topology.Spec.transit
          ~addrs:(provider_addr_internet_side, internet_addr)
          ~latency:0.010 ~customer:"provider" ~provider:"internet" () ]
    ()

type t = {
  net : Net.t;
  customer : Router_node.t;
  provider : Router_node.t;
  internet : Router_node.t;
}

let build filtering =
  let spec = spec filtering in
  let net = Net.create () in
  let nodes =
    List.map
      (fun (d : Topology.Spec.domain) ->
        (d.name, Router_node.attach net ~name:d.name (Router.create (Option.get d.config))))
      spec.domains
  in
  let node = Fun.flip List.assoc nodes in
  List.iter
    (fun (l : Topology.Spec.link) ->
      let aa, ba = Topology.Spec.link_addrs spec l in
      let na = node l.a and nb = node l.b in
      Net.connect net (Router_node.node_id na) (Router_node.node_id nb) ~latency:l.latency;
      Router_node.bind_peer na ~neighbor:ba ~node:(Router_node.node_id nb);
      Router_node.bind_peer nb ~neighbor:aa ~node:(Router_node.node_id na))
    spec.links;
  { net; customer = node "customer"; provider = node "provider"; internet = node "internet" }

let start t =
  Router_node.start t.customer;
  Router_node.start t.provider;
  Router_node.start t.internet;
  let deadline = Net.now t.net +. 60.0 in
  let established () =
    Router.established_peers (Router_node.router t.provider)
    |> List.length = 2
  in
  let rec drive () =
    if established () then ()
    else if Net.now t.net >= deadline then
      failwith "Threerouter.start: sessions did not establish"
    else begin
      ignore (Net.run ~until:(Net.now t.net +. 1.0) ~max_events:100_000 t.net);
      drive ()
    end
  in
  drive ()

(* As in the paper's Figure 2, only the customer originates its space:
   the table keeps no route overlapping it. *)
let clear_of_customer (e : Dice_trace.Gen.entry) =
  let p = e.Dice_trace.Gen.prefix in
  not (List.exists (fun q -> Prefix.subsumes q p || Prefix.subsumes p q) customer_prefixes)

let load_table t trace =
  let dump =
    Array.of_list (List.filter clear_of_customer (Array.to_list trace.Dice_trace.Gen.dump))
  in
  let scheduled =
    Dice_trace.Replay.schedule t.net
      ~from_node:(Router_node.node_id t.internet)
      ~to_node:(Router_node.node_id t.provider)
      ~start_at:(Net.now t.net) ~dump_pace:0.0005 ~next_hop:internet_addr
      { trace with Dice_trace.Gen.dump; events = [||] }
  in
  ignore scheduled;
  let horizon =
    Net.now t.net +. (0.0005 *. float_of_int (Array.length dump)) +. 5.0
  in
  ignore (Net.run ~until:horizon ~max_events:max_int t.net);
  Rib.Loc.cardinal (Router.loc_rib (Router_node.router t.provider))

let provider_router t = Router_node.router t.provider
